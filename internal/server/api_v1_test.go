package server

// Tests for the v1 surface introduced with the API cleanup: the unified
// error envelope (one golden case per status path) and cursor pagination on
// the list endpoints.

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/runqueue"
)

// decodeEnvelope strictly decodes the error envelope — unknown or missing
// fields fail the test, so the wire shape cannot drift silently.
func decodeEnvelope(t *testing.T, resp *http.Response) client.ErrorBody {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response content type %q, want application/json", ct)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	var env client.ErrorResponse
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("error response is not the envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope incomplete: %+v", env.Error)
	}
	return env.Error
}

// get is a test GET returning the raw response.
func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestErrorEnvelopeGolden: the 404 body, byte for byte — the reference
// rendering of the envelope.
func TestErrorEnvelopeGolden(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
	resp := get(t, ts.URL+"/v1/runs/run-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var body strings.Builder
	if _, err := fmt.Fprint(&body, mustReadAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "error": {
    "code": "not_found",
    "message": "runqueue: no such run"
  }
}
`
	if body.String() != golden {
		t.Fatalf("404 body:\n%s\nwant:\n%s", body.String(), golden)
	}
}

func mustReadAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestErrorEnvelopeStatusPaths drives every error status the v1 surface can
// produce and checks each answers the envelope with its stable code.
func TestErrorEnvelopeStatusPaths(t *testing.T) {
	t.Run("400 invalid_request", func(t *testing.T) {
		ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
		resp := postRaw(t, ts.URL+"/v1/runs", "{not json")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Code != CodeInvalidRequest || env.RetryAfterSeconds != 0 {
			t.Fatalf("envelope %+v, want code %s without retry hint", env, CodeInvalidRequest)
		}
	})

	t.Run("404 not_found", func(t *testing.T) {
		ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
		for _, path := range []string{"/v1/runs/run-999999", "/v1/sweeps/sweep-999999",
			"/v1/runs/run-999999/trace", "/v1/runs/run-999999/events"} {
			resp := get(t, ts.URL+path)
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
			}
			if env := decodeEnvelope(t, resp); env.Code != CodeNotFound {
				t.Fatalf("%s: code %q, want %s", path, env.Code, CodeNotFound)
			}
		}
	})

	t.Run("413 payload_too_large", func(t *testing.T) {
		ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
		huge := `{"workload":{"mix":"` + strings.Repeat("x", maxRequestBody) + `"}}`
		resp := postRaw(t, ts.URL+"/v1/runs", huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Code != CodePayloadTooLarge {
			t.Fatalf("code %q, want %s", env.Code, CodePayloadTooLarge)
		}
	})

	t.Run("429 overloaded", func(t *testing.T) {
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
		ts, pool := newTestServer(t, runqueue.Config{
			BaseWorkers: 1, MaxWorkers: 1, QueueLimit: 1, Simulate: blocking,
		})
		postRun(t, ts, submitBody("w1", 1, "equip"))
		deadline := time.Now().Add(5 * time.Second)
		for inflight(pool) == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		postRun(t, ts, submitBody("w1", 2, "equip")) // occupies the queue
		resp := postRaw(t, ts.URL+"/v1/runs", submitBody("w1", 3, "equip"))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		env := decodeEnvelope(t, resp)
		if env.Code != CodeOverloaded || env.RetryAfterSeconds < 1 {
			t.Fatalf("envelope %+v, want code %s with a retry hint", env, CodeOverloaded)
		}
		if header, _ := strconv.Atoi(resp.Header.Get("Retry-After")); header != env.RetryAfterSeconds {
			t.Fatalf("Retry-After header %q disagrees with body %d",
				resp.Header.Get("Retry-After"), env.RetryAfterSeconds)
		}
	})

	// A sweep that does not fit the queue is shed as a whole, with the same
	// 429 overloaded envelope as a single run.
	t.Run("429 queue_full", func(t *testing.T) {
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
		ts, pool := newTestServer(t, runqueue.Config{
			BaseWorkers: 1, MaxWorkers: 1, QueueLimit: 2, Simulate: blocking,
		})
		postRun(t, ts, submitBody("w1", 1, "equip"))
		deadline := time.Now().Add(5 * time.Second)
		for inflight(pool) == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		resp := postRaw(t, ts.URL+"/v1/sweeps", sweepBody) // four runs, two free slots
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		env := decodeEnvelope(t, resp)
		if env.Code != CodeOverloaded || env.RetryAfterSeconds < 1 {
			t.Fatalf("envelope %+v, want code %s with a retry hint", env, CodeOverloaded)
		}
		if header, _ := strconv.Atoi(resp.Header.Get("Retry-After")); header != env.RetryAfterSeconds {
			t.Fatalf("Retry-After header %q disagrees with body %d",
				resp.Header.Get("Retry-After"), env.RetryAfterSeconds)
		}
		if depth := metricValue(t, ts, "pdpad_queue_depth"); depth != 0 {
			t.Fatalf("queue depth %v after a shed sweep, want 0", depth)
		}
	})

	t.Run("503 draining", func(t *testing.T) {
		ts, pool := newTestServer(t, runqueue.Config{Simulate: failFastSim})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := pool.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		resp := postRaw(t, ts.URL+"/v1/runs", submitBody("w1", 1, "equip"))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Code != CodeDraining {
			t.Fatalf("code %q, want %s", env.Code, CodeDraining)
		}
	})

	t.Run("503 unavailable", func(t *testing.T) {
		inj := faults.New(1, faults.Rule{Site: faults.SiteHTTPRequest, Kind: faults.KindError, Count: 1})
		ts, _ := newFaultyServer(t, runqueue.Config{Simulate: failFastSim}, inj)
		resp := get(t, ts.URL+"/healthz")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Code != CodeUnavailable {
			t.Fatalf("code %q, want %s", env.Code, CodeUnavailable)
		}
	})

	t.Run("500 internal", func(t *testing.T) {
		inj := faults.New(1, faults.Rule{Site: faults.SiteHTTPRequest, Kind: faults.KindPanic, Count: 1})
		ts, _ := newFaultyServer(t, runqueue.Config{Simulate: failFastSim}, inj)
		resp := get(t, ts.URL+"/healthz")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Code != CodeInternal {
			t.Fatalf("code %q, want %s", env.Code, CodeInternal)
		}
	})
}

// listRuns fetches one page of GET /v1/runs with the given query string.
func listRuns(t *testing.T, ts *httptest.Server, query string) client.RunPage {
	t.Helper()
	resp := get(t, ts.URL+"/v1/runs"+query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/runs%s: status %d", query, resp.StatusCode)
	}
	var page client.RunPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestListRunsPagination: walking limit-2 pages visits every run newest
// first, exactly once, and the final page has no cursor.
func TestListRunsPagination(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
	var ids []string
	for seed := int64(1); seed <= 5; seed++ {
		sr, status := postRun(t, ts, submitBody("w1", seed, "equip"))
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", seed, status)
		}
		waitRunState(t, ts, sr.ID, "failed") // failFastSim fails instantly
		ids = append(ids, sr.ID)
	}

	var walked []string
	query := "?limit=2"
	for pages := 0; ; pages++ {
		if pages > 3 {
			t.Fatal("pagination never terminated")
		}
		page := listRuns(t, ts, query)
		if len(page.Runs) > 2 {
			t.Fatalf("page of %d runs, want <= limit 2", len(page.Runs))
		}
		for _, v := range page.Runs {
			walked = append(walked, v.ID)
		}
		if page.NextCursor == "" {
			break
		}
		query = "?limit=2&cursor=" + page.NextCursor
	}
	if len(walked) != len(ids) {
		t.Fatalf("walked %d runs %v, want all %d", len(walked), walked, len(ids))
	}
	for i, id := range walked {
		if want := ids[len(ids)-1-i]; id != want {
			t.Fatalf("position %d: got %s, want %s (newest first, no dupes)", i, id, want)
		}
	}

	// A huge limit returns everything in one cursorless page.
	if page := listRuns(t, ts, "?limit=1000"); len(page.Runs) != 5 || page.NextCursor != "" {
		t.Fatalf("limit=1000: %d runs, cursor %q", len(page.Runs), page.NextCursor)
	}
}

// TestListRunsStateFilter: state= filters the page and composes with the
// cursor walk.
func TestListRunsStateFilter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blocking := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, errors.New("stub")
	}
	ts, pool := newTestServer(t, runqueue.Config{BaseWorkers: 4, Simulate: blocking})
	running, _ := postRun(t, ts, submitBody("w1", 100, "equip"))
	waitRunState(t, ts, running.ID, "running")
	// Cancel two queued runs so the pool holds a mix of states.
	a, _ := postRun(t, ts, submitBody("w1", 101, "equip"))
	b, _ := postRun(t, ts, submitBody("w1", 102, "equip"))
	for _, id := range []string{a.ID, b.ID} {
		if _, err := pool.Cancel(id); err != nil {
			t.Fatal(err)
		}
		waitRunState(t, ts, id, "canceled")
	}

	page := listRuns(t, ts, "?state=canceled")
	if len(page.Runs) != 2 {
		t.Fatalf("state=canceled returned %d runs, want 2", len(page.Runs))
	}
	for _, v := range page.Runs {
		if v.State != "canceled" {
			t.Fatalf("state filter leaked a %s run", v.State)
		}
	}
	if page := listRuns(t, ts, "?state=running"); len(page.Runs) != 1 || page.Runs[0].ID != running.ID {
		t.Fatalf("state=running returned %+v, want just %s", page.Runs, running.ID)
	}

	// Filter composes with the cursor: limit=1 pages through the canceled
	// pair without skipping across the interleaved running run.
	first := listRuns(t, ts, "?state=canceled&limit=1")
	if len(first.Runs) != 1 || first.NextCursor == "" {
		t.Fatalf("first filtered page %+v", first)
	}
	second := listRuns(t, ts, "?state=canceled&limit=1&cursor="+first.NextCursor)
	if len(second.Runs) != 1 || second.Runs[0].ID == first.Runs[0].ID {
		t.Fatalf("second filtered page %+v after %+v", second.Runs, first.Runs)
	}
}

// TestListBadQueryParams: invalid limit, cursor, or state answer 400 with
// the invalid_request code.
func TestListBadQueryParams(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
	for _, query := range []string{
		"?limit=0", "?limit=-1", "?limit=abc",
		"?cursor=%21%21not-base64%21%21", "?cursor=" + cursorOf("v2:run-000001"),
		"?state=finished",
	} {
		for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
			resp := get(t, ts.URL+path+query)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("GET %s%s: status %d, want 400", path, query, resp.StatusCode)
				continue
			}
			if env := decodeEnvelope(t, resp); env.Code != CodeInvalidRequest {
				t.Errorf("GET %s%s: code %q, want %s", path, query, env.Code, CodeInvalidRequest)
			}
		}
	}
}

// cursorOf builds a cursor with an arbitrary payload (for version checks).
func cursorOf(payload string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(payload))
}

// TestListSweepsPagination: the sweeps listing pages the same way.
func TestListSweepsPagination(t *testing.T) {
	ts, _ := newTestServer(t, runqueue.Config{Simulate: failFastSim})
	sweepBody := `{"policies":["equip"],"mixes":["w1"],"seeds":[%d]}`
	var ids []string
	for i := 1; i <= 3; i++ {
		resp := postRaw(t, ts.URL+"/v1/sweeps", fmt.Sprintf(sweepBody, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep submit %d: status %d", i, resp.StatusCode)
		}
		var sr client.SweepSubmitResult
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.ID)
	}

	var walked []string
	query := "?limit=2"
	for pages := 0; ; pages++ {
		if pages > 2 {
			t.Fatal("sweep pagination never terminated")
		}
		resp := get(t, ts.URL+"/v1/sweeps"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/sweeps%s: status %d", query, resp.StatusCode)
		}
		var page client.SweepPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		for _, v := range page.Sweeps {
			walked = append(walked, v.ID)
		}
		if page.NextCursor == "" {
			break
		}
		query = "?limit=2&cursor=" + page.NextCursor
	}
	if len(walked) != 3 {
		t.Fatalf("walked %d sweeps %v, want 3", len(walked), walked)
	}
	for i, id := range walked {
		if want := ids[len(ids)-1-i]; id != want {
			t.Fatalf("position %d: got %s, want %s", i, id, want)
		}
	}
}
