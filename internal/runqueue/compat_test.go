package runqueue_test

import (
	"context"
	"testing"
	"time"

	"pdpasim/internal/fleet"
	"pdpasim/internal/store/storetest"
)

// TestStoreCompatRecovery pins the pool's store format: a record stream in
// the format pdpad has always written (a done run with base64 result and
// trace, a failed run, a sweep) recovers into the same response bodies,
// byte for byte.
func TestStoreCompatRecovery(t *testing.T) {
	d, err := fleet.StartDaemon(fleet.DaemonConfig{Addr: "127.0.0.1:0", StoreDir: storetest.Replay(t, "testdata/store-compat.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.Drain(ctx)
		d.Close()
	}()
	storetest.CheckTranscript(t, "testdata/store-compat.golden", d.URL(),
		"/v1/runs", "/v1/runs/run-000001", "/v1/runs/run-000001/trace", "/v1/runs/run-000002", "/v1/sweeps/sweep-000001")
}
