package fleet

import (
	"testing"
	"time"

	"pdpasim/internal/store/storetest"
)

// TestStoreCompatRecovery pins the coordinator's store format: a record
// stream in the format pdpad has always written (a node, a pending run, a
// run journaled pending then final, a run erased by cdel, a sweep)
// recovers into the same response bodies, byte for byte. The node never
// re-registers and the heartbeat clock is an hour, so nothing moves.
func TestStoreCompatRecovery(t *testing.T) {
	d, err := StartDaemon(DaemonConfig{
		Addr:        "127.0.0.1:0",
		StoreDir:    storetest.Replay(t, "testdata/store-compat.jsonl"),
		Coordinator: &Config{Health: HealthConfig{HeartbeatInterval: time.Hour}},
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	storetest.CheckTranscript(t, "testdata/store-compat.golden", d.URL(),
		"/v1/runs", "/v1/runs/run-000001", "/v1/runs/run-000002", "/v1/runs/run-000003", "/v1/sweeps/sweep-000001")
}
