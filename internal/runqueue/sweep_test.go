package runqueue

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim/client"
	"pdpasim/internal/leakcheck"
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
	<-mustDone(t, p, sub.ID)

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

func mustDone(t *testing.T, p *Pool, id string) <-chan struct{} {
	t.Helper()
	ch, err := p.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	return ch
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
	// 4 distinct members > QueueLimit 3: rejected atomically.
	if _, err := p.SubmitSweep(ctx, tinySweepSpec()); err != ErrQueueFull {
		t.Fatalf("oversized sweep: got %v, want ErrQueueFull", err)
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
