package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdpasim/internal/store"
)

// seedJournal builds a real on-disk journal holding one of each coordinator
// record kind and returns its raw bytes — an intact corpus seed the fuzzer
// then mutates into torn tails, corrupt CRCs, and garbage.
func seedJournal(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	st, err := store.Open(dir, store.Options{SyncInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []struct {
		kind string
		v    any
	}{
		{kindCoordNode, nodeRecord{ID: "node-001", Addr: "http://127.0.0.1:1", CPUs: 60}},
		{kindCoordRun, crunRecord{ID: "run-000001", Key: "k", State: "running", NodeID: "node-001", RemoteID: "run-000007"}},
		{kindCoordSweep, sweepRecord("sweep-000001", "run-000001")},
		{kindCoordDel, delRecord{ID: "run-000001"}},
	} {
		payload, err := json.Marshal(rec.v)
		if err != nil {
			f.Fatal(err)
		}
		if err := st.Append(store.Record{Kind: rec.kind, Payload: payload}); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal-000000.pdpj"))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzRecoverState drives coordinator recovery with arbitrary store
// wreckage: the bytes are laid down both as a bare journal and as a
// mixed-generation snapshot+journal pair, opened through the real store,
// and folded by the sweep index and the run ledger. Whatever the input: no panic, no error from
// Open (corruption is truncated and counted, never fatal), every recovered
// entity carries a usable ID, and the ledger's live and dead bytes are not
// negative.
func FuzzRecoverState(f *testing.F) {
	valid := seedJournal(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3]) // torn tail
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0xFF // corrupt CRC mid-stream
	f.Add(mutated)
	f.Add([]byte("not a journal at all"))

	check := func(t *testing.T, st *store.Store) {
		rec, sweeps := recoverAll(st.TakeRecovered())
		if rec.dropped < 0 {
			t.Fatalf("negative drop count %d", rec.dropped)
		}
		if rec.live < 0 || rec.dead < 0 {
			t.Fatalf("negative ledger bytes: live %d, dead %d", rec.live, rec.dead)
		}
		for _, n := range rec.nodes {
			if n.ID == "" {
				t.Fatal("recovered node with empty ID")
			}
		}
		for _, r := range rec.runs {
			if r.ID == "" {
				t.Fatal("recovered run with empty ID")
			}
		}
		for _, id := range sweeps {
			if id == "" {
				t.Fatal("recovered sweep with empty ID")
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// As a bare journal (generation 0, no snapshot).
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal-000000.pdpj"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir, store.Options{SyncInterval: -1})
		if err != nil {
			t.Fatalf("Open on fuzzed journal: %v", err)
		}
		check(t, st)
		st.Close()

		// As a snapshot with the intact seed journaled on top: recovery
		// must fold mixed generations without panicking, or refuse a
		// damaged snapshot with an error naming it.
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, "snapshot-000001.pdps"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, "journal-000001.pdpj"), valid, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := store.Open(dir2, store.Options{SyncInterval: -1})
		if err != nil {
			if !strings.Contains(err.Error(), "snapshot-000001.pdps") {
				t.Fatalf("Open on fuzzed snapshot: %v does not name the snapshot", err)
			}
			return
		}
		check(t, st2)
		st2.Close()
	})
}
