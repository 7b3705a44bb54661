package runqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim/client"
	"pdpasim/internal/leakcheck"
	"pdpasim/internal/obs"
	"pdpasim/internal/store"
)

func tinySweepSpec() client.SubmitSweepRequest {
	return sweepRequest(SweepSpec{
		Policies: []string{"equip", "pdpa"},
		Mixes:    []string{"w1"},
		Loads:    []float64{0.6},
		Seeds:    []int64{1, 2},
		WindowS:  60,
	})
}

func sweepRequest(s SweepSpec) client.SubmitSweepRequest {
	return client.SubmitSweepRequest{SweepSpec: client.SweepSpec(s)}
}

// waitSweepState polls until the sweep reaches want or the deadline passes.
func waitSweepState(t *testing.T, p *Pool, id string, want State) client.SweepView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, err := p.Sweep(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if State(st.State) == want {
			return st
		}
		if State(st.State).Terminal() {
			t.Fatalf("sweep %s reached %s (errors %v), want %s", id, st.State, st.Errors, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached %s", id, want)
	return client.SweepView{}
}

// sweepCells decodes a sweep view's cells.
func sweepCells(t *testing.T, v client.SweepView) []SweepCell {
	t.Helper()
	if len(v.Cells) == 0 {
		return nil
	}
	var cells []SweepCell
	if err := json.Unmarshal(v.Cells, &cells); err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestSweepSubmitAndAggregate runs a real 2-policy × 2-seed grid through the
// pool and checks the aggregated cells.
func TestSweepSubmitAndAggregate(t *testing.T) {
	p := New(Config{})
	res, err := p.SubmitSweep(context.Background(), tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RunIDs) != 4 {
		t.Fatalf("expected 4 member runs, got %d", len(res.RunIDs))
	}
	st := waitSweepState(t, p, res.ID, Done)
	if st.Done != 4 || st.Total != 4 {
		t.Fatalf("done %d/%d, want 4/4", st.Done, st.Total)
	}
	cells := sweepCells(t, st)
	if len(cells) != 2 {
		t.Fatalf("expected 2 cells, got %d", len(cells))
	}
	for _, c := range cells {
		if c.Mix != "w1" || c.Load != 0.6 {
			t.Fatalf("cell mislabeled: %+v", c)
		}
		if c.Makespan.N != 2 || c.Makespan.Mean <= 0 {
			t.Fatalf("cell aggregates wrong: %+v", c.Makespan)
		}
		if len(c.Response) == 0 {
			t.Fatal("per-app response aggregates missing")
		}
	}
	// Cells follow grid order: policies as submitted.
	if cells[0].Policy != "equip" || cells[1].Policy != "pdpa" {
		t.Fatalf("cell order wrong: %s, %s", cells[0].Policy, cells[1].Policy)
	}
}

// TestSweepSharesCacheWithRuns: a member identical to an already completed
// individual run is a cache hit, not a new simulation.
func TestSweepSharesCacheWithRuns(t *testing.T) {
	p := New(Config{})
	single := Spec{
		Workload: WorkloadSpec{Mix: "w1", Load: 0.6, WindowS: 60, Seed: 1},
		Options:  RunOptions{Policy: "equip", Seed: 1},
	}
	sub, err := p.Submit(single, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, sub.ID, Done)

	res, err := p.SubmitSweep(context.Background(), tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 1 {
		t.Fatalf("expected 1 cache hit, got %d", res.CacheHits)
	}
	if res.RunIDs[0] != sub.ID {
		t.Fatalf("cached member should reuse run %s, got %s", sub.ID, res.RunIDs[0])
	}
	st := waitSweepState(t, p, res.ID, Done)
	if n := len(sweepCells(t, st)); n != 2 {
		t.Fatalf("expected 2 cells, got %d", n)
	}
}

// TestSweepAtomicRejection: an invalid or oversized sweep leaves the pool
// untouched.
func TestSweepAtomicRejection(t *testing.T) {
	p := New(Config{QueueLimit: 3})
	ctx := context.Background()
	if _, err := p.SubmitSweep(ctx, sweepRequest(SweepSpec{Policies: []string{"equip"}})); err == nil {
		t.Fatal("sweep without mixes accepted")
	}
	if _, err := p.SubmitSweep(ctx, sweepRequest(SweepSpec{
		Policies: []string{"bogus"}, Mixes: []string{"w1"},
	})); err == nil {
		t.Fatal("sweep with unknown policy accepted")
	}
	// 4 distinct members > QueueLimit 3: shed whole, counted once.
	_, err := p.SubmitSweep(ctx, tinySweepSpec())
	var overload *OverloadError
	if !errors.As(err, &overload) || !errors.Is(err, ErrQueueFull) || overload.RetryAfter < time.Second {
		t.Fatalf("oversized sweep: got %v, want an OverloadError matching ErrQueueFull with Retry-After ≥ 1s", err)
	}
	if got := metric(p, "pdpad_sheds_total", ""); got != 1 {
		t.Fatalf("shed sweep counted %v times in pdpad_sheds_total, want 1", got)
	}
	if got := metric(p, "pdpad_queue_depth", ""); got != 0 {
		t.Fatalf("shed sweep left %v runs queued", got)
	}
	if got := len(p.Runs()); got != 0 {
		t.Fatalf("rejected sweep leaked %d runs into the pool", got)
	}
	if got := len(p.Sweeps(ctx)); got != 0 {
		t.Fatalf("rejected sweep left %d sweep records", got)
	}
}

// TestSweepCancel cancels a sweep whose members are still in flight, and
// verifies cancellation leaves no goroutines behind.
func TestSweepCancel(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	p := New(Config{Simulate: blockingSim(t, &calls, release)})
	res, err := p.SubmitSweep(context.Background(), tinySweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CancelSweep(context.Background(), res.ID); err != nil {
		t.Fatal(err)
	}
	st := waitSweepState(t, p, res.ID, Canceled)
	if len(st.Cells) != 0 {
		t.Fatal("cancelled sweep produced cells")
	}
	if _, err := p.CancelSweep(context.Background(), "sweep-999999"); err != ErrNotFound {
		t.Fatalf("unknown sweep cancel: got %v, want ErrNotFound", err)
	}
}

// TestSweepIndexRecoverAndCompact drives the index's journal directly:
// recovery takes only the index's record kind (the latest record per ID
// wins, undecodable ones are counted), the ID sequence continues past the
// highest recovered ID, and a compaction carries the index's records into
// the snapshot beside the backend's.
func TestSweepIndexRecoverAndCompact(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openStore(t, dir)
	errs := &obs.Counter{}
	hooks := SweepHooks{
		Admit: func(_ context.Context, members []Spec, _ float64) (client.SweepSubmitResult, error) {
			ids := make([]string, len(members))
			for i := range ids {
				ids[i] = fmt.Sprintf("run-%06d", 100+i)
			}
			return client.SweepSubmitResult{RunIDs: ids}, nil
		},
		Members: func(_ context.Context, ids []string) []SweepMember {
			out := make([]SweepMember, len(ids))
			for i, id := range ids {
				out[i] = SweepMember{ID: id, State: Queued}
			}
			return out
		},
	}
	rec := func(kind, payload string) store.Record { return store.Record{Kind: kind, Payload: []byte(payload)} }
	runRec := rec("run", `{"id":"run-000001"}`)

	x := NewSweepIndex("sw", st, errs, hooks)
	rest, n, dropped := RecoverSweeps(x, []store.Record{
		rec("sw", `{"id":"sweep-000003","run_ids":["run-000001"]}`),
		runRec,
		rec("sw", `{"id":"sweep-000007","run_ids":["run-000002"]}`),
		rec("sw", `{"id":"sweep-000003","run_ids":["run-000009"]}`),
		rec("sw", `{half a record`),
		rec("sw", `{"run_ids":["run-000001"]}`), // no ID
	})
	if len(rest) != 1 || rest[0].Kind != "run" {
		t.Fatalf("records left for the backend = %+v, want the run record only", rest)
	}
	if n != 2 || dropped != 2 {
		t.Fatalf("recovered %d sweeps and dropped %d records, want 2 and 2", n, dropped)
	}
	var listed []string
	for _, v := range x.Sweeps(ctx) {
		listed = append(listed, v.ID)
	}
	if fmt.Sprint(listed) != "[sweep-000007 sweep-000003]" {
		t.Fatalf("listed %v, want newest first", listed)
	}
	if v, err := x.Sweep(ctx, "sweep-000003"); err != nil || fmt.Sprint(v.RunIDs) != "[run-000009]" {
		t.Fatalf("sweep-000003 = %+v, %v; want the later record's members", v, err)
	}
	if _, err := x.Sweep(ctx, "sweep-000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown sweep: err %v, want ErrNotFound", err)
	}
	res, err := x.SubmitSweep(ctx, sweepRequest(SweepSpec{Policies: []string{"equip"}, Mixes: []string{"w1"}}))
	if err != nil || res.ID != "sweep-000008" {
		t.Fatalf("submit after recovery = %+v, %v; want sweep-000008", res, err)
	}

	if err := CompactStore(x, []store.Record{runRec}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	defer st2.Close()
	rest, n, _ = RecoverSweeps(NewSweepIndex("sw", st2, errs, hooks), st2.TakeRecovered())
	if len(rest) != 1 || n != 3 {
		t.Fatalf("after compaction: %d backend records and %d sweeps, want 1 and 3", len(rest), n)
	}
}

// TestConcurrentSweepsSurviveCompaction submits sweeps from several
// goroutines to a pool whose history holds two of their members, so
// forgotten members compact the store every few runs while sweeps are
// journaled. Every accepted sweep must get its own ID and survive a
// restart as it was.
func TestConcurrentSweepsSurviveCompaction(t *testing.T) {
	const limit = 2
	dir := t.TempDir()
	st := openStore(t, dir)
	p := New(Config{Store: st, historyLimit: limit, Simulate: instantSim})
	ctx := context.Background()
	const workers, perWorker = 4, 5
	ids := make(chan string, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := p.SubmitSweep(ctx, sweepRequest(SweepSpec{
					Policies: []string{"equip"}, Mixes: []string{"w1"},
					Seeds: []int64{int64(w*100 + i)},
				}))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				ids <- res.ID
				p.Sweeps(ctx)
			}
		}(w)
	}
	wg.Wait()
	close(ids)
	want := map[string]bool{}
	for id := range ids {
		if want[id] {
			t.Fatalf("sweep ID %s allocated twice", id)
		}
		want[id] = true
	}
	if len(want) != workers*perWorker {
		t.Fatalf("%d sweeps accepted, want %d", len(want), workers*perWorker)
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	before := map[string]client.SweepView{}
	done := 0
	for id := range want {
		v, err := p.Sweep(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = v
		if v.State == string(Done) {
			done++
		}
	}
	if done != limit {
		t.Fatalf("%d sweeps done before the restart, want the %d whose members the history holds", done, limit)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Compactions == 0 {
		t.Fatal("no compaction after the history forgot most members")
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	p2 := New(Config{Store: st2, historyLimit: limit, Simulate: instantSim})
	defer p2.Drain(ctx)
	for id := range want {
		v, err := p2.Sweep(ctx, id)
		got, _ := json.Marshal(v)
		was, _ := json.Marshal(before[id])
		if err != nil || string(got) != string(was) {
			t.Errorf("sweep %s after restart: %s, %v; want %s", id, got, err, was)
		}
	}
}
