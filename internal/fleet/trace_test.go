package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/runqueue"
)

// traceRequest is a PDPA run whose decision trace holds every kind of
// policy event.
var traceRequest = client.SubmitRunRequest{
	Workload: client.Workload{Mix: "w1", Load: 0.6, WindowS: 60, Seed: 5},
	Options:  client.RunOptions{Policy: "pdpa", Seed: 5},
}

// recordedTrace is the decision trace traceRequest records when simulated
// with the daemon's default 2000-event trace limit.
func recordedTrace(t *testing.T) []byte {
	t.Helper()
	ws, opts := runqueue.Spec{Workload: traceRequest.Workload, Options: traceRequest.Options}.Facade()
	opts.DecisionTrace = 2000
	out, err := pdpasim.RunContext(context.Background(), ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.DecisionTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// servedTrace runs traceRequest on the daemon at base and returns the body
// of its GET /v1/runs/{id}/trace.
func servedTrace(ctx context.Context, t *testing.T, base string) (id string, body []byte) {
	t.Helper()
	cli := client.New(base)
	defer cli.CloseIdleConnections()
	sub, err := cli.SubmitRun(ctx, traceRequest)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := cli.WaitRun(ctx, sub.ID, 0); err != nil || v.State != "done" {
		t.Fatalf("run %s: view %+v err %v", sub.ID, v, err)
	}
	return sub.ID, getTrace(t, base, sub.ID)
}

func getTrace(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace of %s: status %d err %v: %s", id, resp.StatusCode, err, body)
	}
	return body
}

// TestServedTraceEqualsRecorded: the decision trace a daemon serves is the
// one the run records when simulated traced, on a durable standalone
// daemon before and after a kill and restart on its store, and through a
// coordinator, byte for byte.
func TestServedTraceEqualsRecorded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	want := recordedTrace(t)

	d, err := StartDaemon(DaemonConfig{Addr: "127.0.0.1:0", StoreDir: t.TempDir(), StoreSync: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	id, got := servedTrace(ctx, t, d.URL())
	if !bytes.Equal(got, want) {
		t.Fatal("standalone daemon: served trace differs from the recorded one")
	}
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := getTrace(t, d.URL(), id); !bytes.Equal(got, want) {
		t.Fatal("standalone daemon after kill and restart: served trace differs from the recorded one")
	}

	f := startFleet(t, 1, PlaceRoundRobin, nil)
	if _, got := servedTrace(ctx, t, f.c.URL()); !bytes.Equal(got, want) {
		t.Fatal("coordinator: served trace differs from the recorded one")
	}
}
