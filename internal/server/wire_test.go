package server_test

// The v1 wire contract as one request script, replayed against both
// backends the server fronts: a standalone pool and a fleet coordinator
// over one node. The standalone transcript is golden-compared byte for byte
// (timestamps, durations, uptime and build strings masked); the coordinator
// must answer every step with the same status, the same error code and the
// same body shape, and relay the node's shed (429) verbatim. Only the role
// string and the health node counts may differ between the two.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/internal/fleet"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wireSim runs the real simulator with decision tracing, except that mix w2
// blocks until release is closed: the script's way of holding the single
// worker busy so later submissions queue and overflow.
func wireSim(release <-chan struct{}) runqueue.SimulateFunc {
	return func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		if spec.Workload.Mix == "w2" {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ws, opts := spec.Facade()
		opts.DecisionTrace = 2000
		return pdpasim.RunContext(ctx, ws, opts)
	}
}

// wirePoolConfig is one worker and a two-deep queue, so the script can fill
// the queue deterministically.
func wirePoolConfig(release <-chan struct{}) runqueue.Config {
	return runqueue.Config{
		BaseWorkers: 1, MaxWorkers: 1, QueueLimit: 2,
		Warmup: time.Millisecond, Simulate: wireSim(release),
	}
}

// wireTarget is one backend under the script.
type wireTarget struct {
	url     string
	release chan struct{}
	drain   func(context.Context) error
}

func standaloneTarget(t *testing.T) *wireTarget {
	release := make(chan struct{})
	pool := runqueue.New(wirePoolConfig(release))
	ts := httptest.NewServer(server.New(pool))
	t.Cleanup(func() {
		closeOnce(release)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		pool.Drain(ctx)
	})
	return &wireTarget{url: ts.URL, release: release, drain: pool.Drain}
}

func coordinatorTarget(t *testing.T) *wireTarget {
	release := make(chan struct{})
	hc := &http.Client{}
	coord, err := fleet.StartDaemon(fleet.DaemonConfig{Addr: "127.0.0.1:0", Coordinator: &fleet.Config{
		Health: fleet.HealthConfig{
			HeartbeatInterval: 50 * time.Millisecond,
			UnhealthyAfter:    10 * time.Second,
			DeadAfter:         20 * time.Second,
		},
		HTTPClient: hc,
	}})
	if err != nil {
		t.Fatal(err)
	}
	node, err := fleet.StartDaemon(fleet.DaemonConfig{Addr: "127.0.0.1:0", Pool: wirePoolConfig(release), Join: coord.URL()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		closeOnce(release)
		node.Agent().Stop()
		coord.Kill()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		node.Drain(ctx)
		node.Close()
		hc.CloseIdleConnections()
	})
	select {
	case <-node.Agent().Registered():
	case <-time.After(10 * time.Second):
		t.Fatal("node never registered")
	}
	return &wireTarget{url: coord.URL(), release: release, drain: coord.Drain}
}

func closeOnce(ch chan struct{}) {
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// wireStep is one exchange of the script. Recorded steps land in the
// transcript; the others only move the script along.
type wireStep struct {
	name         string
	method, path string // path may reference {var}s captured earlier
	body         string
	want         int    // expected status
	capture      string // capture the response's "id" under this var
	cursor       string // capture the response's "next_cursor" under this var
	sse          bool   // read the body as a server-sent event stream
	noBody       bool   // record only the status (the body is not stable)
	action       func(*testing.T, *wireTarget, map[string]string)
}

const (
	runA     = `{"workload":{"mix":"w3","load":0.5,"ncpu":16,"window_s":20,"seed":1},"options":{"policy":"equip","seed":1}}`
	runB     = `{"workload":{"mix":"w3","load":0.5,"ncpu":16,"window_s":20,"seed":1},"options":{"policy":"pdpa","seed":1}}`
	runBlock = `{"workload":{"mix":"w2","load":0.5,"ncpu":16,"window_s":20,"seed":5},"options":{"policy":"equip"}}`
	runQ1    = `{"workload":{"mix":"w3","load":0.5,"ncpu":16,"window_s":20,"seed":6},"options":{"policy":"equip"}}`
	runQ2    = `{"workload":{"mix":"w3","load":0.5,"ncpu":16,"window_s":20,"seed":7},"options":{"policy":"equip"}}`
	runOver  = `{"workload":{"mix":"w3","load":0.5,"ncpu":16,"window_s":20,"seed":8},"options":{"policy":"equip"}}`
	runLate  = `{"workload":{"mix":"w3","load":0.5,"ncpu":16,"window_s":20,"seed":9},"options":{"policy":"equip"}}`
	sweepS   = `{"policies":["equip","pdpa"],"mixes":["w3"],"loads":[0.5],"seeds":[1,2],"ncpu":16,"window_s":20}`
)

func waitRun(id, state string) func(*testing.T, *wireTarget, map[string]string) {
	return func(t *testing.T, tg *wireTarget, vars map[string]string) {
		waitState(t, tg.url+"/v1/runs/"+vars[id], state)
	}
}

func waitState(t *testing.T, url, state string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == state {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never reached %s", url, state)
}

// wireScript covers every v1 route and every envelope status.
var wireScript = []wireStep{
	{name: "version", method: "GET", path: "/v1/version", want: 200},
	{name: "health", method: "GET", path: "/healthz", want: 200},
	{name: "submit A", method: "POST", path: "/v1/runs", body: runA, want: 202, capture: "A"},
	{action: waitRun("A", "done")},
	{name: "get A", method: "GET", path: "/v1/runs/{A}", want: 200},
	{name: "events A", method: "GET", path: "/v1/runs/{A}/events", want: 200, sse: true},
	{name: "trace A", method: "GET", path: "/v1/runs/{A}/trace", want: 200},
	{name: "resubmit A (cache hit)", method: "POST", path: "/v1/runs", body: runA, want: 200},
	{name: "submit B", method: "POST", path: "/v1/runs", body: runB, want: 202, capture: "B"},
	{action: waitRun("B", "done")},
	{name: "submit blocker", method: "POST", path: "/v1/runs", body: runBlock, want: 202, capture: "X"},
	{action: waitRun("X", "running")},
	{name: "submit Q1 (queued)", method: "POST", path: "/v1/runs", body: runQ1, want: 202, capture: "Q1"},
	{name: "submit Q2 (queued)", method: "POST", path: "/v1/runs", body: runQ2, want: 202, capture: "Q2"},
	{name: "submit over the queue limit", method: "POST", path: "/v1/runs", body: runOver, want: 429},
	{name: "cancel Q1", method: "DELETE", path: "/v1/runs/{Q1}", want: 200},
	{name: "events Q1 (canceled)", method: "GET", path: "/v1/runs/{Q1}/events", want: 200, sse: true},
	{action: func(t *testing.T, tg *wireTarget, vars map[string]string) {
		closeOnce(tg.release)
		waitState(t, tg.url+"/v1/runs/"+vars["X"], "done")
		waitState(t, tg.url+"/v1/runs/"+vars["Q2"], "done")
	}},
	{name: "list page 1", method: "GET", path: "/v1/runs?limit=3", want: 200, cursor: "next"},
	{name: "list page 2", method: "GET", path: "/v1/runs?limit=3&cursor={next}", want: 200},
	{name: "list canceled", method: "GET", path: "/v1/runs?state=canceled", want: 200},
	{name: "list bad state", method: "GET", path: "/v1/runs?state=finished", want: 400},
	{name: "list bad limit", method: "GET", path: "/v1/runs?limit=0", want: 400},
	{name: "list bad cursor", method: "GET", path: "/v1/runs?cursor=%21%21", want: 400},
	{name: "submit sweep", method: "POST", path: "/v1/sweeps", body: sweepS, want: 202, capture: "S"},
	{action: func(t *testing.T, tg *wireTarget, vars map[string]string) {
		waitState(t, tg.url+"/v1/sweeps/"+vars["S"], "done")
	}},
	{name: "get sweep", method: "GET", path: "/v1/sweeps/{S}", want: 200},
	{name: "list sweeps", method: "GET", path: "/v1/sweeps?limit=1", want: 200},
	{name: "list done sweeps", method: "GET", path: "/v1/sweeps?state=done", want: 200},
	{name: "list sweeps bad state", method: "GET", path: "/v1/sweeps?state=finished", want: 400},
	{name: "cancel sweep", method: "DELETE", path: "/v1/sweeps/{S}", want: 200},
	{name: "submit malformed", method: "POST", path: "/v1/runs", body: "{not json", want: 400},
	{name: "submit unknown field", method: "POST", path: "/v1/runs", body: `{"workload":{"mix":"w3"},"bogus":1}`, want: 400},
	{name: "submit negative deadline", method: "POST", path: "/v1/runs",
		body: `{"workload":{"mix":"w3"},"options":{"policy":"equip"},"deadline_s":-1}`, want: 400},
	{name: "submit invalid spec", method: "POST", path: "/v1/runs",
		body: `{"workload":{"mix":"w9"},"options":{"policy":"equip"}}`, want: 400},
	{name: "submit oversized", method: "POST", path: "/v1/runs",
		body: `{"workload":{"mix":"` + strings.Repeat("x", 1<<20) + `"}}`, want: 413},
	{name: "submit sweep without policies", method: "POST", path: "/v1/sweeps", body: `{"mixes":["w3"]}`, want: 400},
	{name: "get unknown run", method: "GET", path: "/v1/runs/run-999999", want: 404},
	{name: "cancel unknown run", method: "DELETE", path: "/v1/runs/run-999999", want: 404},
	{name: "events unknown run", method: "GET", path: "/v1/runs/run-999999/events", want: 404},
	{name: "trace unknown run", method: "GET", path: "/v1/runs/run-999999/trace", want: 404},
	{name: "get unknown sweep", method: "GET", path: "/v1/sweeps/sweep-999999", want: 404},
	{name: "cancel unknown sweep", method: "DELETE", path: "/v1/sweeps/sweep-999999", want: 404},
	{name: "metrics", method: "GET", path: "/metrics", want: 200, noBody: true},
	{action: func(t *testing.T, tg *wireTarget, vars map[string]string) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := tg.drain(ctx); err != nil {
			t.Fatal(err)
		}
	}},
	{name: "health draining", method: "GET", path: "/healthz", want: 200},
	{name: "submit while draining", method: "POST", path: "/v1/runs", body: runLate, want: 503},
	{name: "submit sweep while draining", method: "POST", path: "/v1/sweeps",
		body: `{"policies":["equip"],"mixes":["w1"],"seeds":[42]}`, want: 503},
}

// exchange is one recorded step's outcome.
type exchange struct {
	name   string
	method string
	path   string
	status int
	body   string // masked
}

// maskRE matches the values that legitimately differ between runs.
var maskRE = regexp.MustCompile(`("(?:submitted_at|started_at|finished_at|registered_at|last_heartbeat_at|at|wall_seconds|uptime_s|version|go_version)":\s*)("[^"]*"|[-+0-9.eE]+)`)

func mask(b []byte) string { return maskRE.ReplaceAllString(string(b), `$1"*"`) }

// replay runs the script against one backend and returns its transcript.
func replay(t *testing.T, tg *wireTarget) []exchange {
	t.Helper()
	vars := map[string]string{}
	var out []exchange
	for _, st := range wireScript {
		if st.action != nil {
			st.action(t, tg, vars)
			continue
		}
		path := st.path
		for k, v := range vars {
			path = strings.ReplaceAll(path, "{"+k+"}", v)
		}
		var body io.Reader
		if st.body != "" {
			body = strings.NewReader(st.body)
		}
		req, err := http.NewRequest(st.method, tg.url+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		raw, err := readBody(resp, st.sse)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if resp.StatusCode != st.want {
			t.Fatalf("%s: %s %s answered %d, want %d: %s", st.name, st.method, path, resp.StatusCode, st.want, raw)
		}
		if st.capture != "" || st.cursor != "" {
			var v struct {
				ID         string `json:"id"`
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if st.capture != "" {
				vars[st.capture] = v.ID
			}
			if st.cursor != "" {
				if v.NextCursor == "" {
					t.Fatalf("%s: no next_cursor", st.name)
				}
				vars[st.cursor] = v.NextCursor
			}
		}
		ex := exchange{name: st.name, method: st.method, path: path, status: resp.StatusCode}
		if !st.noBody {
			ex.body = mask(raw)
		}
		out = append(out, ex)
	}
	return out
}

// readBody reads a JSON body whole, or an SSE stream up to its terminal
// event as the concatenated data payloads (one per line).
func readBody(resp *http.Response, sse bool) ([]byte, error) {
	if !sse || resp.StatusCode != http.StatusOK {
		return io.ReadAll(resp.Body)
	}
	var out strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		out.WriteString(data + "\n")
		var ev struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, err
		}
		if ev.State == "done" || ev.State == "failed" || ev.State == "canceled" {
			return []byte(out.String()), nil
		}
	}
	return nil, fmt.Errorf("event stream ended without a terminal event: %q", out.String())
}

func transcript(exs []exchange) []byte {
	var b strings.Builder
	for _, ex := range exs {
		fmt.Fprintf(&b, "=== %s: %s %s\nstatus %d\n%s", ex.name, ex.method, ex.path, ex.status, ex.body)
		if ex.body != "" && !strings.HasSuffix(ex.body, "\n") {
			b.WriteString("\n")
		}
	}
	return []byte(b.String())
}

// shape reduces a decoded JSON value to its structure: object keys, array
// lengths, and leaf kinds. Error codes are kept verbatim, since they are
// part of the contract; every other leaf value is dropped.
func shape(v any, key string) any {
	switch x := v.(type) {
	case map[string]any:
		out := map[string]any{}
		for k, e := range x {
			out[k] = shape(e, k)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = shape(e, "")
		}
		return out
	case string:
		if key == "code" {
			return "code:" + x
		}
		return "string"
	case float64:
		return "number"
	case bool:
		return "bool"
	default:
		return "null"
	}
}

func bodyShape(t *testing.T, ex exchange) any {
	t.Helper()
	if ex.body == "" {
		return nil
	}
	if strings.HasPrefix(ex.path, "/v1/runs/") && strings.HasSuffix(ex.path, "/events") && ex.status == http.StatusOK {
		var evs []any
		for _, line := range strings.Split(strings.TrimSpace(ex.body), "\n") {
			var ev any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("%s: %v", ex.name, err)
			}
			evs = append(evs, shape(ev, ""))
		}
		return evs
	}
	var v any
	if err := json.Unmarshal([]byte(ex.body), &v); err != nil {
		t.Fatalf("%s: body is not JSON: %v", ex.name, err)
	}
	if m, ok := v.(map[string]any); ok && ex.path == "/healthz" {
		// The coordinator adds its node counts; nothing else may differ.
		delete(m, "nodes")
		delete(m, "healthy")
	}
	return shape(v, "")
}

func TestWireContract(t *testing.T) {
	solo := replay(t, standaloneTarget(t))
	got := transcript(solo)
	golden := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("standalone transcript drifted from %s (regenerate with -update only for a deliberate wire change)\n--- got\n%s", golden, got)
	}

	fleetEx := replay(t, coordinatorTarget(t))
	if len(fleetEx) != len(solo) {
		t.Fatalf("coordinator transcript has %d exchanges, standalone %d", len(fleetEx), len(solo))
	}
	for i := range solo {
		s, c := solo[i], fleetEx[i]
		if s.status != c.status {
			t.Errorf("%s: coordinator status %d, standalone %d", s.name, c.status, s.status)
			continue
		}
		if a, b := bodyShape(t, s), bodyShape(t, c); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: coordinator body shape differs\ncoordinator: %s\nstandalone:  %s", s.name, c.body, s.body)
		}
		// A node's shed reaches the client as the node wrote it, retry
		// hint included.
		if s.status == http.StatusTooManyRequests && c.body != s.body {
			t.Errorf("%s: coordinator altered the node's shed\ncoordinator: %s\nstandalone:  %s", s.name, c.body, s.body)
		}
	}
}
