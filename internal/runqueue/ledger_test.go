package runqueue

import (
	"encoding/json"
	"strings"
	"testing"

	"pdpasim/client"
	"pdpasim/internal/obs"
	"pdpasim/internal/store"
)

// padRun is a ledger test's run: its journal record is itself, so a pad of
// a chosen length gives each record a known payload size.
type padRun struct {
	ID  string `json:"id"`
	Pad string `json:"pad"`
}

func padLedger(st *store.Store) *Ledger[*padRun] {
	return NewLedger(LedgerConfig[*padRun]{
		Kind:        "run",
		DelKind:     "del",
		Store:       st,
		Sweeps:      NewSweepIndex("sweep", st, &obs.Counter{}, SweepHooks{}),
		StoreErrors: &obs.Counter{},
		Record:      func(r *padRun) any { return r },
		Decode: func(payload []byte) (string, string, *padRun, error) {
			r := &padRun{}
			err := json.Unmarshal(payload, r)
			return r.ID, r.ID, r, err
		},
		Event: func(*padRun) client.Event { return client.Event{State: "done"} },
	})
}

// payloadLen is the journaled size of v.
func payloadLen(t *testing.T, v any) int {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

// settlePadded adds and settles a run whose record is size bytes long.
func settlePadded(t *testing.T, l *Ledger[*padRun], size int) *padRun {
	t.Helper()
	r := l.Add("", func(id string) *padRun { return &padRun{ID: id} })
	r.Pad = strings.Repeat("x", size-payloadLen(t, r))
	l.Settle(r.ID)
	return r
}

func wantCompactions(t *testing.T, st *store.Store, want uint64, when string) {
	t.Helper()
	if got := st.Stats().Compactions; got != want {
		t.Fatalf("%s: %d compactions, want %d", when, got, want)
	}
}

// TestLedgerCompactionAtDeadEqualLive: superseded records count as dead,
// and the ledger compacts at the first Persist where they reach the live
// records, not one before; compaction clears the debt.
func TestLedgerCompactionAtDeadEqualLive(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	l := padLedger(st)
	const small = 40
	settlePadded(t, l, 4*small) // live 5×small once the small run lands
	b := settlePadded(t, l, small)
	for round := uint64(1); round <= 2; round++ {
		for i := 1; i < 5; i++ {
			l.Persist(b.ID) // dead i×small < live 5×small
			wantCompactions(t, st, round-1, "dead below live")
		}
		l.Persist(b.ID) // dead 5×small = live
		wantCompactions(t, st, round, "dead equal to live")
	}
}

// TestLedgerCompactionCountsForgottenRuns: a forgotten run's last record
// and its delete record both count as dead — here exactly enough to
// compact.
func TestLedgerCompactionCountsForgottenRuns(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	l := padLedger(st)
	l.Limit = 1
	const size = 200
	del := payloadLen(t, delRecord{ID: "run-000001"})
	settlePadded(t, l, size-del)
	wantCompactions(t, st, 0, "first run")
	b := settlePadded(t, l, size) // forgets the first: dead size-del+del = live
	wantCompactions(t, st, 1, "first run forgotten")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	recs := st2.TakeRecovered()
	if len(recs) != 1 || !strings.Contains(string(recs[0].Payload), b.ID) {
		t.Fatalf("compacted store holds %d records, want only %s", len(recs), b.ID)
	}
}

// TestLedgerCompactionDebtSurvivesRestart: a restart rebuilds the dead
// bytes from the recovered stream without compacting, so the Persist that
// tips them over the live ones compacts as it would have before the
// restart.
func TestLedgerCompactionDebtSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	l := padLedger(st)
	const small = 40
	settlePadded(t, l, 4*small)
	b := settlePadded(t, l, small)
	for i := 1; i < 5; i++ {
		l.Persist(b.ID)
	}
	wantCompactions(t, st, 0, "before the restart")
	live, dead := l.Bytes()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	l2 := padLedger(st2)
	if _, n, dropped, _ := l2.Recover(st2.TakeRecovered()); n != 2 || dropped != 0 {
		t.Fatalf("recovered %d runs, dropped %d; want 2 and 0", n, dropped)
	}
	wantCompactions(t, st2, 0, "after Recover")
	if live2, dead2 := l2.Bytes(); live2 != live || dead2 != dead {
		t.Fatalf("recovered live %d, dead %d; want %d and %d as before the restart", live2, dead2, live, dead)
	}
	l2.Persist(b.ID)
	wantCompactions(t, st2, 1, "first Persist after the restart")
}
