package runqueue_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store/storetest"
)

// TestStoreCompatRecovery pins the pool's store format: a record stream in
// the format pdpad has always written (a done run with base64 result and
// trace, a failed run, a sweep) recovers into the same response bodies,
// byte for byte.
func TestStoreCompatRecovery(t *testing.T) {
	st := storetest.Replay(t, "testdata/store-compat.jsonl")
	p := runqueue.New(runqueue.Config{Store: st})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Drain(ctx)
	}()
	ts := httptest.NewServer(server.New(p))
	defer ts.Close()
	storetest.CheckTranscript(t, "testdata/store-compat.golden", ts.URL,
		"/v1/runs", "/v1/runs/run-000001", "/v1/runs/run-000001/trace", "/v1/runs/run-000002", "/v1/sweeps/sweep-000001")
}
