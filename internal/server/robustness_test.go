package server

// Robustness tests for the daemon's HTTP surface: malformed and oversized
// payloads, panic recovery, injected request faults, overload signalling,
// and a goroutine-leak check across server shutdown.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/internal/faults"
	"pdpasim/internal/leakcheck"
	"pdpasim/internal/runqueue"
)

// newFaultyServer is newTestServer with a fault injector installed.
func newFaultyServer(t *testing.T, cfg runqueue.Config, inj *faults.Injector) (*httptest.Server, *runqueue.Pool) {
	t.Helper()
	pool := runqueue.New(cfg)
	ts := httptest.NewServer(New(pool, WithFaults(inj)))
	t.Cleanup(ts.Close)
	return ts, pool
}

// failFastSim fails every simulation immediately — for tests that only need
// the HTTP layer, not results.
func failFastSim(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
	return nil, errors.New("stub: simulation disabled")
}

// inflight reads the pool's running-simulation gauge.
func inflight(pool *runqueue.Pool) float64 {
	v, _ := pool.Metrics().Value("pdpad_inflight_runs", "")
	return v
}

func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestMalformedRequestsRejected: broken submission payloads answer 400 with a
// JSON error — never a 500, never a panic.
func TestMalformedRequestsRejected(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
	cases := []struct {
		name, body string
	}{
		{"empty", ""},
		{"not json", "this is not json"},
		{"truncated", `{"workload":{"mix":"w1","loa`},
		{"unknown field", `{"workload":{"mix":"w1"},"options":{"policy":"pdpa"},"bogus":1}`},
		{"wrong type", `{"workload":"w1"}`},
		{"negative deadline", `{"workload":{"mix":"w1"},"options":{"policy":"pdpa"},"deadline_s":-1}`},
		{"invalid spec", `{"workload":{"mix":"w9"},"options":{"policy":"pdpa"}}`},
		{"array body", `[1,2,3]`},
	}
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		for _, tc := range cases {
			resp := postRaw(t, ts.URL+path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", path, tc.name, resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s: content type %q, want JSON error", path, tc.name, ct)
			}
		}
	}
}

// TestOversizedBodyRejected: payloads past the body cap answer 413.
func TestOversizedBodyRejected(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
	huge := `{"workload":{"mix":"` + strings.Repeat("x", maxRequestBody) + `"}}`
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		resp := postRaw(t, ts.URL+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestInjectedHTTPPanicRecovered: a panic inside request handling answers 500,
// increments the http recovered-panics series, and the daemon keeps serving.
func TestInjectedHTTPPanicRecovered(t *testing.T) {
	inj := faults.New(1, faults.Rule{Site: faults.SiteHTTPRequest, Kind: faults.KindPanic, Count: 1})
	ts, _ := newFaultyServer(t, runqueue.Config{Simulate: failFastSim}, inj)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", resp.StatusCode)
	}
	// The daemon survived; the next request is served normally.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d, want 200", resp2.StatusCode)
	}
	if !strings.Contains(metricsText(t, ts), `pdpad_recovered_panics_total{where="http"} 1`) {
		t.Error("recovered panic not counted in the http series")
	}
}

// TestInjectedHTTPErrorAnswers503: an injected request fault surfaces as 503.
func TestInjectedHTTPErrorAnswers503(t *testing.T) {
	inj := faults.New(1, faults.Rule{Site: faults.SiteHTTPRequest, Kind: faults.KindError, Count: 1})
	ts, _ := newFaultyServer(t, runqueue.Config{Simulate: failFastSim}, inj)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

// TestOverloadRetryAfterHeader: a shed submission answers 429 with the pool's
// Retry-After estimate.
func TestOverloadRetryAfterHeader(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocking := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		select {
		case <-release:
			return nil, errors.New("stub")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts, _ := newTestServer(t, runqueue.Config{
		BaseWorkers: 1, MaxWorkers: 1, QueueLimit: 1, Simulate: blocking,
	})
	if _, status := postRun(t, ts, submitBody("w1", 1, "equip")); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	// Wait until the first run is in flight so the next occupies the queue.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if metricValue(t, ts, "pdpad_inflight_runs") == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, status := postRun(t, ts, submitBody("w1", 2, "equip")); status != http.StatusAccepted {
		t.Fatalf("second submit: status %d", status)
	}
	resp := postRaw(t, ts.URL+"/v1/runs", submitBody("w1", 3, "equip"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit: status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive whole-second count", resp.Header.Get("Retry-After"))
	}
	if metricValue(t, ts, "pdpad_sheds_total") != 1 {
		t.Error("shed not counted")
	}
}

// TestQueueFullRetryAfterHeader: the queue admits exactly QueueLimit waiting
// runs; the next submission is shed with a Retry-After header.
func TestQueueFullRetryAfterHeader(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocking := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		select {
		case <-release:
			return nil, errors.New("stub")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	const limit = 3
	ts, pool := newTestServer(t, runqueue.Config{
		BaseWorkers: 1, MaxWorkers: 1, QueueLimit: limit, Simulate: blocking,
	})
	if _, status := postRun(t, ts, submitBody("w1", 1, "equip")); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for inflight(pool) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	for seed := int64(2); seed < 2+limit; seed++ {
		if _, status := postRun(t, ts, submitBody("w1", seed, "equip")); status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202 below the queue limit", seed, status)
		}
	}
	resp := postRaw(t, ts.URL+"/v1/runs", submitBody("w1", 2+limit, "equip"))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("full-queue submit: status %d Retry-After %q, want 429 with header",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestServerShutdownNoLeaks: serving runs and an SSE stream, then draining
// the pool and closing the server, returns to the baseline goroutine count.
func TestServerShutdownNoLeaks(t *testing.T) {
	leakcheck.Check(t)
	pool := runqueue.New(runqueue.Config{})
	ts := httptest.NewServer(New(pool))

	sr, status := postRun(t, ts, submitBody("w1", 21, "equip"))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	// Stream the run's lifecycle to completion so an SSE handler goroutine
	// has lived and exited during the test.
	resp, err := http.Get(ts.URL + "/v1/runs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	resp.Body.Close()
	waitRunState(t, ts, sr.ID, "done")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pool.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
}

// FuzzSubmitDecode feeds arbitrary bytes to the submission endpoints: every
// response must be a well-formed HTTP status below 500 — malformed input can
// never panic the handler or surface as a server error.
func FuzzSubmitDecode(f *testing.F) {
	f.Add([]byte(submitBody("w1", 1, "equip")))
	f.Add([]byte(""))
	f.Add([]byte("null"))
	f.Add([]byte(`{"workload":{"mix":"w9"}}`))
	f.Add([]byte(`{"workload":{"mix":"w1","loa`))
	f.Add([]byte(`{"workload":{"mix":"w1","load":1e309},"options":{"policy":"pdpa"}}`))
	f.Add([]byte(`{"policies":["pdpa"],"mixes":["w1"],"seeds":[1,2]}`))
	f.Add([]byte(`[{"workload":{}}]`))
	f.Add([]byte("{\"workload\":{\"mix\":\"\x00\"}}"))

	pool := runqueue.New(runqueue.Config{
		QueueLimit: 8,
		Simulate: func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			return nil, errors.New("stub: simulation disabled")
		},
	})
	srv := New(pool)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("POST %s with %q: status %d", path, body, rec.Code)
			}
		}
	})
}
