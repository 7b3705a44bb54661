package runqueue

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/internal/store"
)

// openStore opens a durable store in dir with fsync-per-append (tests never
// want a batching window between "run finished" and "run durable").
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drainClose drains the pool and closes its store — the daemon's shutdown
// sequence.
func drainClose(t *testing.T, p *Pool, s *store.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartByteIdenticalResults is the acceptance property: a completed
// run recovered after a restart is indistinguishable from the original —
// same state, same timestamps, byte-identical result JSON, and a served
// decision trace equal to the one the run records when simulated traced.
func TestRestartByteIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	p := New(Config{Store: st})

	var ids []string
	specs := make(map[string]Spec)
	for seed := int64(1); seed <= 3; seed++ {
		res, err := p.Submit(pdpaSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
		specs[res.ID] = pdpaSpec(seed)
	}
	before := make(map[string]Snapshot, len(ids))
	for _, id := range ids {
		before[id] = waitState(t, p, id, Done)
		if tr, err := p.Trace(context.Background(), id); err != nil || !bytes.Equal(tr, recordedTrace(t, specs[id])) {
			t.Fatalf("run %s: served trace differs from the recorded one (err %v)", id, err)
		}
	}
	drainClose(t, p, st)

	st2 := openStore(t, dir)
	defer st2.Close()
	p2 := New(Config{Store: st2})
	defer p2.Drain(context.Background())

	for _, id := range ids {
		got, err := p2.Get(id)
		if err != nil {
			t.Fatalf("run %s lost across restart: %v", id, err)
		}
		want := before[id]
		if got.State != Done || got.Key != want.Key {
			t.Fatalf("run %s: state %s key %s, want Done %s", id, got.State, got.Key, want.Key)
		}
		if !bytes.Equal(got.ResultJSON, want.ResultJSON) {
			t.Fatalf("run %s: result JSON changed across restart", id)
		}
		if tr, err := p2.Trace(context.Background(), id); err != nil || !bytes.Equal(tr, recordedTrace(t, specs[id])) {
			t.Fatalf("run %s: served trace changed across restart (err %v)", id, err)
		}
		if !got.Submitted.Equal(want.Submitted) || !got.Started.Equal(want.Started) ||
			!got.Finished.Equal(want.Finished) {
			t.Fatalf("run %s: timestamps drifted across restart", id)
		}
		// A recovered run's event chain is its terminal event alone.
		if evs := follow(t, p2, id); len(evs) != 1 || evs[0].State != string(Done) || !evs[0].At.Equal(want.Finished) {
			t.Fatalf("run %s: recovered events %+v, want one done event at %v", id, evs, want.Finished)
		}
	}
	if got := len(p2.Runs()); got != len(ids) {
		t.Fatalf("recovered pool lists %d runs, want %d", got, len(ids))
	}

	// The run-ID sequence continues past the recovered runs — no collisions.
	res, err := p2.Submit(tinySpec(99), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if res.ID == id {
			t.Fatalf("new submission reused recovered ID %s", id)
		}
	}
	waitState(t, p2, res.ID, Done)
}

// TestRestartServesCacheHits: recovered results re-enter the result cache,
// so resubmitting a spec that completed before the restart is a cache hit —
// the simulator is never invoked.
func TestRestartServesCacheHits(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	var calls atomic.Int64
	sim := func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) {
		calls.Add(1)
		return stubOutcome()
	}
	p := New(Config{Store: st, Simulate: sim})
	res, err := p.Submit(tinySpec(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, res.ID, Done)
	drainClose(t, p, st)

	st2 := openStore(t, dir)
	defer st2.Close()
	p2 := New(Config{Store: st2, Simulate: sim})
	defer p2.Drain(context.Background())
	res2, err := p2.Submit(tinySpec(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit || res2.ID != res.ID {
		t.Fatalf("resubmit after restart: got %+v, want cache hit on %s", res2, res.ID)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("simulator ran %d times, want 1 (recovered result must serve the hit)", n)
	}
}

// TestRestartRecoversSweeps: an accepted sweep and its members survive a
// restart, the aggregated status still computes, and the sweep ID sequence
// continues.
func TestRestartRecoversSweeps(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	p := New(Config{Store: st})
	res, err := p.SubmitSweep(context.Background(), tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.RunIDs {
		waitState(t, p, id, Done)
	}
	want, err := p.Sweep(context.Background(), res.ID)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(t, p, st)

	st2 := openStore(t, dir)
	defer st2.Close()
	p2 := New(Config{Store: st2})
	defer p2.Drain(context.Background())

	got, err := p2.Sweep(context.Background(), res.ID)
	if err != nil {
		t.Fatalf("sweep %s lost across restart: %v", res.ID, err)
	}
	if got.State != string(Done) || got.Done != want.Done || got.Total != want.Total {
		t.Fatalf("recovered sweep %s: %s %d/%d, want %s %d/%d",
			res.ID, got.State, got.Done, got.Total, want.State, want.Done, want.Total)
	}
	if !bytes.Equal(got.Cells, want.Cells) {
		t.Fatalf("recovered sweep cells differ:\n%s\nwant\n%s", got.Cells, want.Cells)
	}
	if n := len(p2.Sweeps(context.Background())); n != 1 {
		t.Fatalf("recovered pool lists %d sweeps, want 1", n)
	}
	res2, err := p2.SubmitSweep(context.Background(), tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res2.ID == res.ID {
		t.Fatalf("new sweep reused recovered ID %s", res.ID)
	}
	if res2.CacheHits != got.Total {
		t.Fatalf("resubmitted sweep got %d cache hits, want all %d members", res2.CacheHits, got.Total)
	}
}

// TestRehydrateRespectsHistoryLimit: a pool restarted with a smaller
// history bound keeps only the newest recovered runs and counts the rest as
// store evictions.
func TestRehydrateRespectsHistoryLimit(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	p := New(Config{Store: st})
	var ids []string
	for seed := int64(1); seed <= 5; seed++ {
		res, err := p.Submit(tinySpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, p, res.ID, Done)
		ids = append(ids, res.ID)
	}
	drainClose(t, p, st)

	st2 := openStore(t, dir)
	defer st2.Close()
	p2 := New(Config{Store: st2, historyLimit: 2})
	defer p2.Drain(context.Background())
	if got := len(p2.Runs()); got != 2 {
		t.Fatalf("recovered pool lists %d runs, want HistoryLimit 2", got)
	}
	// The two newest survive, the three oldest are gone and counted.
	for _, id := range ids[3:] {
		if _, err := p2.Get(id); err != nil {
			t.Fatalf("newest run %s evicted: %v", id, err)
		}
	}
	for _, id := range ids[:3] {
		if _, err := p2.Get(id); err == nil {
			t.Fatalf("oldest run %s survived past HistoryLimit", id)
		}
	}
	if v, ok := p2.Metrics().Value("pdpad_store_evicted_runs_total", ""); !ok || v != 3 {
		t.Fatalf("store evicted counter %v (ok %v), want 3", v, ok)
	}
}

// TestCompactionUnderPool: a pool whose history forgets runs compacts once
// the forgotten records outweigh the held ones, and the store still
// recovers every run it holds, and none it forgot, from a single snapshot
// generation.
func TestCompactionUnderPool(t *testing.T) {
	const limit = 2
	dir := t.TempDir()
	st := openStore(t, dir)
	p := New(Config{Store: st, historyLimit: limit})
	var ids []string
	for seed := int64(1); seed <= 5; seed++ {
		res, err := p.Submit(tinySpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, p, res.ID, Done)
		ids = append(ids, res.ID)
	}
	if st.Stats().Compactions == 0 {
		t.Fatal("no compaction after the history forgot three runs")
	}
	drainClose(t, p, st)

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 2 {
		var names []string
		for _, f := range files {
			names = append(names, f.Name())
		}
		t.Fatalf("store dir holds %v, want at most one snapshot + one journal", names)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	p2 := New(Config{Store: st2, historyLimit: limit})
	defer p2.Drain(context.Background())
	for i, id := range ids {
		_, err := p2.Get(id)
		if held := i >= len(ids)-limit; held && err != nil {
			t.Fatalf("run %s lost after compaction: %v", id, err)
		} else if !held && err == nil {
			t.Fatalf("forgotten run %s came back after compaction", id)
		}
	}
}

// largeOutcome is one real simulation with a long window, whose result of
// about 290 KB journals as a record of about 390 KB.
var largeOutcome = sync.OnceValues(func() (*pdpasim.Outcome, error) {
	return pdpasim.RunContext(context.Background(),
		pdpasim.WorkloadSpec{Mix: "w4", Load: 0.6, Window: 2 * time.Hour, Seed: 1},
		pdpasim.Options{Policy: pdpasim.Equipartition},
	)
})

// TestNoCompactionOfLiveJournal: runs whose records add up to more than
// 8 MiB, none superseded or forgotten, leave nothing to reclaim, so the
// store is never compacted, and every run recovers byte for byte.
func TestNoCompactionOfLiveJournal(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	sim := func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) { return largeOutcome() }
	p := New(Config{Store: st, Simulate: sim})
	var snaps []Snapshot
	for seed := int64(1); st.Stats().AppendedBytes <= 8<<20; seed++ {
		if seed > 100 {
			t.Fatalf("%d runs journaled only %d bytes", seed-1, st.Stats().AppendedBytes)
		}
		res, err := p.Submit(tinySpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, waitState(t, p, res.ID, Done))
	}
	drainClose(t, p, st)
	wantCompactions(t, st, 0, fmt.Sprintf("%d live runs", len(snaps)))

	st2 := openStore(t, dir)
	defer st2.Close()
	p2 := New(Config{Store: st2, Simulate: sim})
	defer p2.Drain(context.Background())
	for _, want := range snaps {
		got, err := p2.Get(want.ID)
		if err != nil || !bytes.Equal(got.ResultJSON, want.ResultJSON) {
			t.Fatalf("run %s after restart differs (err %v)", want.ID, err)
		}
	}
}

// TestRestartCompactionAtFirstSettle: a pool reopened under a lower
// history bound forgets runs during recovery without compacting, and the
// dead bytes that leaves compact the store at its first settled run.
func TestRestartCompactionAtFirstSettle(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	p := New(Config{Store: st})
	for seed := int64(1); seed <= 4; seed++ {
		res, err := p.Submit(tinySpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, p, res.ID, Done)
	}
	drainClose(t, p, st)

	st2 := openStore(t, dir)
	defer st2.Close()
	p2 := New(Config{Store: st2, historyLimit: 1})
	defer p2.Drain(context.Background())
	wantCompactions(t, st2, 0, "recovery forgot three of four runs")
	res, err := p2.Submit(tinySpec(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p2, res.ID, Done)
	wantCompactions(t, st2, 1, "first settled run after the restart")
}

// TestStoreErrorsDoNotFailRuns: persistence failures (store closed under
// the pool) are counted, but the run still completes and is served from
// memory.
func TestStoreErrorsDoNotFailRuns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	st := openStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Store: st})
	defer p.Drain(context.Background())
	res, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, p, res.ID, Done)
	if len(snap.ResultJSON) == 0 {
		t.Fatal("run completed without a result")
	}
	if v, ok := p.Metrics().Value("pdpad_store_errors_total", ""); !ok || v < 1 {
		t.Fatalf("store errors counter %v (ok %v), want >= 1", v, ok)
	}
}
