package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/runqueue"
)

func postSweep(t *testing.T, ts *httptest.Server, body string) (client.SweepSubmitResult, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr client.SweepSubmitResult
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode
}

func getSweep(t *testing.T, ts *httptest.Server, id string) client.SweepView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET sweep %s: status %d", id, resp.StatusCode)
	}
	var v client.SweepView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitSweepState(t *testing.T, ts *httptest.Server, id, want string) client.SweepView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		v := getSweep(t, ts, id)
		if v.State == want {
			return v
		}
		if runqueue.State(v.State).Terminal() {
			t.Fatalf("sweep %s reached %s (errors %v), want %s", id, v.State, v.Errors, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached %s", id, want)
	return client.SweepView{}
}

const sweepBody = `{"policies":["equip","pdpa"],"mixes":["w1"],"loads":[0.6],"seeds":[1,2],"window_s":60}`

// TestSweepSubmitAndStatus drives a real grid through the HTTP surface:
// submit, poll to done, and check per-cell aggregates on the detail view.
func TestSweepSubmitAndStatus(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	sr, status := postSweep(t, ts, sweepBody)
	if status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	if len(sr.RunIDs) != 4 {
		t.Fatalf("expected 4 member runs, got %d", len(sr.RunIDs))
	}
	v := waitSweepState(t, ts, sr.ID, "done")
	if v.Done != 4 || v.Total != 4 {
		t.Fatalf("done %d/%d, want 4/4", v.Done, v.Total)
	}
	var cells []runqueue.SweepCell
	if err := json.Unmarshal(v.Cells, &cells); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(cells))
	}
	for _, c := range cells {
		if c.Makespan.N != 2 || c.Makespan.Mean <= 0 {
			t.Fatalf("bad cell aggregates: %+v", c)
		}
	}
	// Member runs are ordinary runs reachable through the runs API, with the
	// same Outcome JSON schema as any individually submitted run.
	rv := getRun(t, ts, sr.RunIDs[0])
	if rv.State != "done" || len(rv.Result) == 0 {
		t.Fatalf("member run %s: state %s, result %d bytes", sr.RunIDs[0], rv.State, len(rv.Result))
	}
}

// TestSweepSharesCacheOverHTTP: a sweep overlapping a completed individual
// run reports the cache hit in the submit response.
func TestSweepSharesCacheOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	// Sweep members use the workload seed for the scheduling noise too, so
	// match that in the individual submission.
	run, _ := postRun(t, ts,
		`{"workload":{"mix":"w1","load":0.6,"window_s":60,"seed":1},"options":{"policy":"equip","seed":1}}`)
	waitRunState(t, ts, run.ID, "done")

	sr, status := postSweep(t, ts, sweepBody)
	if status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	if sr.CacheHits != 1 {
		t.Fatalf("cache hits %d, want 1", sr.CacheHits)
	}
	waitSweepState(t, ts, sr.ID, "done")
}

// TestSweepListAndCancel: the listing shows sweeps newest-first without
// detail fields, and DELETE cancels in-flight members.
func TestSweepListAndCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocking := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	ts, _ := newTestServer(t, runqueue.Config{Simulate: blocking})
	sr, _ := postSweep(t, ts, sweepBody)

	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sweeps []client.SweepView `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != sr.ID {
		t.Fatalf("listing wrong: %+v", list.Sweeps)
	}
	if len(list.Sweeps[0].RunIDs) != 0 || len(list.Sweeps[0].Cells) != 0 {
		t.Fatal("listing leaked detail fields")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sr.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := getSweep(t, ts, sr.ID)
		if v.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s after cancel", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepValidationErrors: malformed grids are rejected with 400, unknown
// sweeps 404, and an oversized grid gets 429 without enqueueing anything.
func TestSweepValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{QueueLimit: 3})
	for _, body := range []string{
		`{not json`,
		`{"mixes":["w1"]}`,
		`{"policies":["pdpa"]}`,
		`{"policies":["bogus"],"mixes":["w1"]}`,
		`{"policies":["pdpa"],"mixes":["w9"]}`,
		`{"policies":["pdpa"],"mixes":["w1"],"deadline_s":-1}`,
		`{"policies":["pdpa"],"mixes":["w1"],"surprise":true}`,
	} {
		if _, status := postSweep(t, ts, body); status != http.StatusBadRequest {
			t.Errorf("payload %q: status %d, want 400", body, status)
		}
	}
	if _, status := postSweep(t, ts, sweepBody); status != http.StatusTooManyRequests {
		t.Errorf("oversized sweep: status %d, want 429", status)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/sweep-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep status %d, want 404", resp.StatusCode)
	}
}
