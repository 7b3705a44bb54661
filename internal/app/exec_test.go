package app

import (
	"testing"

	"pdpasim/internal/sim"
)

// tinyProfile returns a 3-iteration profile with a perfectly parallel
// speedup, 10s serial work per iteration, no overheads.
func tinyProfile() *Profile {
	return &Profile{
		Name: "tiny", Speedup: Amdahl{Parallel: 1},
		SerialIterationTime: 10 * sim.Second, Iterations: 3,
		Request: 4, BaselineProcs: 1, BaselineIterations: 1,
	}
}

func TestExecutionBasicFlow(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	if e.Done() {
		t.Fatal("fresh execution done")
	}
	e.SetRate(0, 2) // speedup 2 => iteration takes 5s
	end := e.NextIterationEnd()
	if end != 5*sim.Second {
		t.Fatalf("NextIterationEnd = %v", end)
	}
	s := e.CompleteIteration(end)
	if !s.Clean || s.WallTime != 5*sim.Second || s.Rate != 2 || s.Index != 0 {
		t.Fatalf("sample = %+v", s)
	}
	if e.IterationsDone() != 1 {
		t.Fatalf("done = %d", e.IterationsDone())
	}
}

func TestExecutionRateChangeDirtiesIteration(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, 2)
	e.SetRate(2*sim.Second, 5) // mid-iteration change
	// Remaining work: 10 - 4 = 6 serial seconds at rate 5 => 1.2s more.
	if got := e.NextIterationEnd(); got != 3200*sim.Millisecond {
		t.Fatalf("NextIterationEnd = %v", got)
	}
	s := e.CompleteIteration(e.NextIterationEnd())
	if s.Clean {
		t.Fatal("iteration spanning a rate change should be dirty")
	}
	// Next iteration at constant rate is clean again.
	s2 := e.CompleteIteration(e.NextIterationEnd())
	if !s2.Clean || s2.Rate != 5 {
		t.Fatalf("sample2 = %+v", s2)
	}
}

func TestExecutionSameRateSetNotDirty(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, 2)
	e.SetRate(2*sim.Second, 2) // same rate: still clean
	s := e.CompleteIteration(e.NextIterationEnd())
	if !s.Clean {
		t.Fatal("same-rate SetRate dirtied the iteration")
	}
}

func TestExecutionPenaltyDelaysCompletion(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, 2)
	e.AddPenalty(sim.Second, 3*sim.Second)
	// 2 serial seconds done at t=1s; penalty 3s; remaining 8 serial at rate
	// 2 = 4s. End = 1 + 3 + 4 = 8s.
	if got := e.NextIterationEnd(); got != 8*sim.Second {
		t.Fatalf("NextIterationEnd = %v", got)
	}
	s := e.CompleteIteration(8 * sim.Second)
	if s.Clean {
		t.Fatal("penalized iteration should be dirty")
	}
}

func TestExecutionZeroRateStalls(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	if e.NextIterationEnd() != sim.Forever {
		t.Fatal("stopped app should never finish")
	}
	e.SetRate(10*sim.Second, 1)
	if got := e.NextIterationEnd(); got != 20*sim.Second {
		t.Fatalf("end after idle start = %v", got)
	}
	// Idle wait before the first progress is not part of the iteration time.
	s := e.CompleteIteration(20 * sim.Second)
	if s.WallTime != 10*sim.Second || !s.Clean {
		t.Fatalf("sample = %+v", s)
	}
}

func TestExecutionStopMidIteration(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, 2)
	e.SetRate(sim.Second, 0) // preempted entirely
	if e.NextIterationEnd() != sim.Forever {
		t.Fatal("stopped app must not complete")
	}
	e.SetRate(5*sim.Second, 2)
	// 8 serial seconds remain at rate 2 => 4s.
	if got := e.NextIterationEnd(); got != 9*sim.Second {
		t.Fatalf("end = %v", got)
	}
}

func TestExecutionInstrumentationOverhead(t *testing.T) {
	p := tinyProfile()
	p.MeasurementOverhead = 0.1
	e := newExecution(p, true, 0)
	e.SetRate(0, 1)
	if got := e.NextIterationEnd(); got != 11*sim.Second {
		t.Fatalf("instrumented iteration end = %v", got)
	}
	e2 := newExecution(p, false, 0)
	e2.SetRate(0, 1)
	if got := e2.NextIterationEnd(); got != 10*sim.Second {
		t.Fatalf("uninstrumented iteration end = %v", got)
	}
}

func TestExecutionCompletesAll(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, 10)
	for i := 0; i < 3; i++ {
		if e.Done() {
			t.Fatalf("done early at %d", i)
		}
		e.CompleteIteration(e.NextIterationEnd())
	}
	if !e.Done() {
		t.Fatal("not done after all iterations")
	}
	if remainingWork(e) != 0 {
		t.Fatalf("remaining = %v", remainingWork(e))
	}
	if e.NextIterationEnd() != sim.Forever {
		t.Fatal("done app should report Forever")
	}
}

func TestExecutionRemainingWork(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	if remainingWork(e) != 30*sim.Second {
		t.Fatalf("initial remaining = %v", remainingWork(e))
	}
	e.SetRate(0, 2)
	e.Advance(sim.Second)
	if remainingWork(e) != 28*sim.Second {
		t.Fatalf("after 1s at rate 2: %v", remainingWork(e))
	}
}

func TestExecutionEarlyCompletePanics(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.CompleteIteration(sim.Second)
}

func TestExecutionBackwardsAdvancePanics(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.Advance(5 * sim.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.Advance(4 * sim.Second)
}

func TestExecutionOvershootPanics(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	// Advancing far past the iteration boundary without completing is a
	// driver bug and must be caught.
	e.Advance(60 * sim.Second)
}

func TestExecutionNegativeRateClamps(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, -5)
	if e.Rate() != 0 {
		t.Fatalf("rate = %v", e.Rate())
	}
}

func TestExecutionZeroPenaltyIgnored(t *testing.T) {
	e := newExecution(tinyProfile(), false, 0)
	e.SetRate(0, 1)
	e.AddPenalty(sim.Second, 0)
	s := e.CompleteIteration(e.NextIterationEnd())
	if !s.Clean {
		t.Fatal("zero penalty dirtied iteration")
	}
}

// newExecution returns the execution state for prof, instrumented (paying
// MeasurementOverhead) if instrumented is true, starting stopped (rate 0) at
// time start.
func newExecution(prof *Profile, instrumented bool, start sim.Time) *Execution {
	e := new(Execution)
	InitExecution(e, prof, instrumented, start)
	return e
}

// remainingWork returns the serial work left, across all iterations.
func remainingWork(e *Execution) sim.Time {
	if e.Done() {
		return 0
	}
	n := 1
	if e.batch > 1 {
		n = e.batch
	}
	left := e.curWork() - e.progress
	left += e.iterWork * sim.Time(e.prof.Iterations-e.iterationsDone-n)
	return left
}
