package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/runqueue"
)

func newTestServer(t *testing.T, cfg runqueue.Config) (*httptest.Server, *runqueue.Pool) {
	t.Helper()
	pool := runqueue.New(cfg)
	ts := httptest.NewServer(New(pool))
	t.Cleanup(ts.Close)
	return ts, pool
}

func submitBody(mix string, seed int64, policy string) string {
	return fmt.Sprintf(`{"workload":{"mix":%q,"load":0.6,"window_s":60,"seed":%d},"options":{"policy":%q}}`,
		mix, seed, policy)
}

func postRun(t *testing.T, ts *httptest.Server, body string) (client.SubmitResult, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr client.SubmitResult
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return sr, resp.StatusCode
}

func getRun(t *testing.T, ts *httptest.Server, id string) client.RunView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET run %s: status %d", id, resp.StatusCode)
	}
	var v client.RunView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitRunState(t *testing.T, ts *httptest.Server, id, want string) client.RunView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		v := getRun(t, ts, id)
		if v.State == want {
			return v
		}
		if runqueue.State(v.State).Terminal() {
			t.Fatalf("run %s reached %s (err %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return client.RunView{}
}

// TestSubmitStatusResult drives a real simulation through the full HTTP
// surface: submit, poll to done, fetch the result, and hit the cache on an
// identical second submission.
func TestSubmitStatusResult(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	sr, status := postRun(t, ts, submitBody("w1", 1, "equip"))
	if status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	v := waitRunState(t, ts, sr.ID, "done")
	if len(v.Result) == 0 {
		t.Fatal("done run has no result")
	}
	var result struct {
		Policy string `json:"policy"`
		Jobs   []any  `json:"jobs"`
	}
	if err := json.Unmarshal(v.Result, &result); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if len(result.Jobs) == 0 {
		t.Fatal("result has no jobs")
	}
	if v.WallSeconds <= 0 {
		t.Fatal("no wall time recorded")
	}

	// Identical spec: served from cache with 200, same run ID.
	sr2, status2 := postRun(t, ts, submitBody("w1", 1, "equip"))
	if status2 != http.StatusOK || !sr2.CacheHit || sr2.ID != sr.ID {
		t.Fatalf("second submit: status %d resp %+v, want cached %s", status2, sr2, sr.ID)
	}
}

// TestConcurrentSubmitsSingleflight: racing identical POSTs resolve to one
// run and one simulation.
func TestConcurrentSubmitsSingleflight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	ts, _ := newTestServer(t, runqueue.Config{
		Simulate: func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			calls.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			ws, opts := spec.Facade()
			return pdpasim.RunContext(ctx, ws, opts)
		},
	})
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sr, status := postRun(t, ts, submitBody("w1", 5, "equip"))
			if status/100 != 2 {
				t.Errorf("status %d", status)
				return
			}
			ids[i] = sr.ID
		}(i)
	}
	wg.Wait()
	close(release)
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("identical submits split: %v", ids)
		}
	}
	waitRunState(t, ts, ids[0], "done")
	if got := calls.Load(); got != 1 {
		t.Fatalf("simulated %d times, want 1", got)
	}
}

// TestDeleteCancelsRunningSimulation: DELETE aborts a heavy real simulation
// promptly, observable as a canceled terminal state.
func TestDeleteCancelsRunningSimulation(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	body := `{"workload":{"mix":"w2","load":1.0,"window_s":14400,"seed":3},"options":{"policy":"pdpa"}}`
	sr, status := postRun(t, ts, body)
	if status != http.StatusAccepted {
		t.Fatalf("status %d", status)
	}
	waitRunState(t, ts, sr.ID, "running")

	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := getRun(t, ts, sr.ID)
		if v.State == "canceled" {
			if !strings.Contains(v.Error, "context canceled") {
				t.Fatalf("error %q does not mention cancellation", v.Error)
			}
			break
		}
		if runqueue.State(v.State).Terminal() {
			t.Fatalf("run ended %s, want canceled", v.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never canceled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancellation took %v", wall)
	}
}

// TestSSEStreamsLifecycle: the events endpoint streams queued/running/done
// transitions and terminates after the terminal event.
func TestSSEStreamsLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	sr, _ := postRun(t, ts, submitBody("w1", 21, "equip"))
	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var states []string
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev client.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		states = append(states, string(ev.State))
	}
	if len(states) == 0 || states[len(states)-1] != "done" {
		t.Fatalf("streamed states %v, want trailing done", states)
	}
	// The stream must include the terminal transition exactly once.
	count := 0
	for _, s := range states {
		if s == "done" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("terminal state streamed %d times: %v", count, states)
	}
}

// TestTraceEndpoint: a done run serves its recorded decision trace with
// policy decisions and reasons; pools with tracing disabled and unknown runs
// 404.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	sr, _ := postRun(t, ts, submitBody("w1", 61, "pdpa"))
	waitRunState(t, ts, sr.ID, "done")

	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var trace struct {
		Events []struct {
			Kind   string `json:"kind"`
			Reason string `json:"reason"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Events) == 0 {
		t.Fatal("trace has no events")
	}
	kinds := map[string]bool{}
	reasons := map[string]bool{}
	for _, e := range trace.Events {
		kinds[e.Kind] = true
		if e.Reason != "" {
			reasons[e.Reason] = true
		}
	}
	for _, want := range []string{"run_start", "policy_state", "admit", "realloc", "run_end"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events (kinds %v)", want, kinds)
		}
	}
	if len(reasons) == 0 {
		t.Error("no admission decision carries a reason")
	}

	// Unknown run: 404.
	resp2, err := http.Get(ts.URL + "/v1/runs/run-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run trace: status %d, want 404", resp2.StatusCode)
	}

	// Tracing disabled: 404 with an explanatory error.
	tsOff, _ := newTestServer(t, runqueue.Config{TraceLimit: -1})
	srOff, _ := postRun(t, tsOff, submitBody("w1", 61, "pdpa"))
	waitRunState(t, tsOff, srOff.ID, "done")
	resp3, err := http.Get(tsOff.URL + "/v1/runs/" + srOff.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("trace with tracing disabled: status %d, want 404", resp3.StatusCode)
	}
}

// TestAdmissionVisibleThroughAPI: with base=1/max=2 and a long warm-up, a
// second distinct spec stays queued (visible via /metrics queue depth) until
// the first is past warm-up.
func TestAdmissionVisibleThroughAPI(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocking := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	const warmup = 500 * time.Millisecond
	ts, _ := newTestServer(t, runqueue.Config{
		BaseWorkers: 1, MaxWorkers: 2, Warmup: warmup, Simulate: blocking,
	})
	a, _ := postRun(t, ts, submitBody("w1", 1, "equip"))
	waitRunState(t, ts, a.ID, "running")
	b, _ := postRun(t, ts, submitBody("w1", 2, "equip"))

	time.Sleep(warmup / 5)
	if v := getRun(t, ts, b.ID); v.State != "queued" {
		t.Fatalf("second run %s during warm-up, want queued", v.State)
	}
	if depth := metricValue(t, ts, "pdpad_queue_depth"); depth != 1 {
		t.Fatalf("pdpad_queue_depth %v, want 1", depth)
	}
	waitRunState(t, ts, b.ID, "running")
	if inflight := metricValue(t, ts, "pdpad_inflight_runs"); inflight != 2 {
		t.Fatalf("pdpad_inflight_runs %v, want 2", inflight)
	}
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestMetricsExposition: the required series exist in Prometheus text
// format and move with traffic.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	sr, _ := postRun(t, ts, submitBody("w1", 31, "equip"))
	waitRunState(t, ts, sr.ID, "done")
	postRun(t, ts, submitBody("w1", 31, "equip")) // cache hit

	text := metricsText(t, ts)
	for _, want := range []string{
		"# TYPE pdpad_queue_depth gauge",
		"# TYPE pdpad_inflight_runs gauge",
		"# TYPE pdpad_cache_hits_total counter",
		"# TYPE pdpad_cache_misses_total counter",
		"# TYPE pdpad_run_wall_seconds histogram",
		`pdpad_run_wall_seconds_bucket{le="+Inf"} 1`,
		"pdpad_run_wall_seconds_count 1",
		`pdpad_runs_finished_total{state="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if metricValue(t, ts, "pdpad_cache_hits_total") != 1 {
		t.Error("cache hit not counted")
	}
	if metricValue(t, ts, "pdpad_cache_misses_total") != 1 {
		t.Error("cache miss not counted")
	}
}

// TestGracefulDrainCompletesInflight: draining the pool lets in-flight runs
// finish and flips /healthz to draining.
func TestGracefulDrainCompletesInflight(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	slow := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		ws, opts := spec.Facade()
		return pdpasim.RunContext(ctx, ws, opts)
	}
	ts, pool := newTestServer(t, runqueue.Config{Simulate: slow})
	sr, _ := postRun(t, ts, submitBody("w1", 41, "equip"))
	waitRunState(t, ts, sr.ID, "running")

	drained := make(chan error, 1)
	go func() { drained <- pool.Drain(context.Background()) }()
	// Draining: health reports it and new submissions are refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if health.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, status := postRun(t, ts, submitBody("w1", 42, "equip")); status != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", status)
	}
	once.Do(func() { close(release) })
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := getRun(t, ts, sr.ID); v.State != "done" {
		t.Fatalf("in-flight run ended %s after graceful drain, want done", v.State)
	}
}

// TestValidationErrors: bad payloads are rejected through the shared
// validation path with 400s, and unknown runs 404.
func TestValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	for _, body := range []string{
		`{not json`,
		`{"workload":{"mix":"w9"},"options":{"policy":"pdpa"}}`,
		`{"workload":{"mix":"w1"},"options":{"policy":"bogus"}}`,
		`{"workload":{"mix":"w1","load":-2},"options":{"policy":"pdpa"}}`,
		`{"workload":{"mix":"w1"},"options":{"policy":"pdpa"},"deadline_s":-1}`,
		`{"workload":{"mix":"w1"},"options":{"policy":"pdpa"},"surprise":true}`,
	} {
		if _, status := postRun(t, ts, body); status != http.StatusBadRequest {
			t.Errorf("payload %q: status %d, want 400", body, status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/run-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run status %d, want 404", resp.StatusCode)
	}
}

// TestListRuns: the listing endpoint returns known runs newest-first.
func TestListRuns(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{})
	a, _ := postRun(t, ts, submitBody("w1", 51, "equip"))
	waitRunState(t, ts, a.ID, "done")
	b, _ := postRun(t, ts, submitBody("w1", 52, "equip"))
	waitRunState(t, ts, b.ID, "done")

	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Runs []client.RunView `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 2 || list.Runs[0].ID != b.ID || list.Runs[1].ID != a.ID {
		t.Fatalf("listing wrong: %+v", list.Runs)
	}
}

// failOnceWriter is a ResponseWriter whose first body write fails, as a
// write to a client that has hung up does.
type failOnceWriter struct {
	*httptest.ResponseRecorder
	failed bool
}

func (w *failOnceWriter) Write(b []byte) (int, error) {
	if !w.failed {
		w.failed = true
		return 0, errors.New("write: broken pipe")
	}
	return w.ResponseRecorder.Write(b)
}

// TestWriteJSONAfterFailedWrite: a response whose write fails leaves later
// responses whole. (A json.Encoder that failed once fails every later
// Encode, so a pooled one must not be reused after a failed write.)
func TestWriteJSONAfterFailedWrite(t *testing.T) {
	v := map[string]any{"id": "run-000001", "result": strings.Repeat("x", 64<<10)}
	WriteJSON(&failOnceWriter{ResponseRecorder: httptest.NewRecorder()}, http.StatusOK, v)
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		var got map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("write %d after a failed one: body of %d bytes does not decode: %v", i+1, rec.Body.Len(), err)
		}
		if got["result"] != v["result"] {
			t.Fatalf("write %d after a failed one: result differs", i+1)
		}
	}
}

// TestTraceDerivationFailureIs503: a done run whose trace derivation hits
// the run timeout answers 503 unavailable, not 400: the request was valid.
func TestTraceDerivationFailureIs503(t *testing.T) {
	instant := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		return pdpasim.RunContext(ctx, pdpasim.WorkloadSpec{Mix: "w1", Load: 0.4, Window: 30 * time.Second, Seed: 1},
			pdpasim.Options{Policy: pdpasim.Equipartition})
	}
	ts, _ := newTestServer(t, runqueue.Config{RunTimeout: 200 * time.Millisecond, Simulate: instant})
	sr, _ := postRun(t, ts, `{"workload":{"mix":"w2","load":1.0,"window_s":86400,"seed":5},"options":{"policy":"pdpa"}}`)
	waitRunState(t, ts, sr.ID, "done")
	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env client.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != CodeUnavailable {
		t.Fatalf("trace past the run timeout: status %d code %q, want 503 %q", resp.StatusCode, env.Error.Code, CodeUnavailable)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatalf("trace past the run timeout carries Retry-After %q", resp.Header.Get("Retry-After"))
	}
}
