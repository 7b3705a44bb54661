package nthlib

import (
	"math"
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
)

// prof4 returns a 5-iteration, perfectly parallel profile: 10s serial per
// iteration, baseline 2 iterations on 2 procs, no penalties.
func prof4() *app.Profile {
	return &app.Profile{
		Name: "t", Speedup: app.Amdahl{Parallel: 1},
		SerialIterationTime: 10 * sim.Second, Iterations: 5,
		Request: 8, BaselineProcs: 2, BaselineIterations: 2,
	}
}

func analyzer(p *app.Profile) *selfanalyzer.Analyzer {
	return selfanalyzer.MustNew(selfanalyzer.ConfigFor(p, 0), nil)
}

func TestRuntimeLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	var perf []selfanalyzer.Measurement
	var doneAt sim.Time
	var rt *Runtime
	rt = New(eng, p, p.Request, analyzer(p), Hooks{
		OnPerformance: func(m selfanalyzer.Measurement) { perf = append(perf, m) },
		OnDone:        func() { doneAt = eng.Now() },
	})
	rt.SetAllocation(8)
	// Baseline cap: effective must be 2 despite the grant of 8.
	if rt.effective != 2 || rt.Allocated() != 8 {
		t.Fatalf("effective=%d allocated=%d", rt.effective, rt.Allocated())
	}
	eng.Run(sim.Forever)
	if !rt.done {
		t.Fatal("not done")
	}
	// Baseline: 2 iterations at 2 procs = 2 × 5s. Then 3 iterations at 8
	// procs = 3 × 1.25s. Total 13.75s.
	if want := 13750 * sim.Millisecond; doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	// Measurements: iterations 0-1 are the baseline (no reports); iterations
	// 2 and 3 measure at 8 procs; iteration 4 completes the app (no
	// measurement).
	if len(perf) != 2 {
		t.Fatalf("measurements = %d, want 2", len(perf))
	}
	for _, m := range perf {
		if m.Procs != 8 || math.Abs(m.Speedup-8) > 1e-9 {
			t.Fatalf("measurement = %+v", m)
		}
	}
}

func TestRuntimeReallocPenalty(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	p.BaselineIterations = 1
	p.BaselineProcs = 1
	p.ReallocPenalty = sim.Second
	rt := New(eng, p, p.Request, nil, Hooks{}) // uninstrumented: no baseline
	rt.SetAllocation(4)
	if rt.effective != 4 {
		t.Fatalf("effective = %d", rt.effective)
	}
	// First iteration would end at 2.5s; change allocation at 1s.
	eng.At(sim.Second, "realloc", func() { rt.SetAllocation(8) })
	eng.Run(sim.Forever)
	// Work: 1s at rate 4 = 4 serial done; penalty 1s; remaining 46 serial at
	// rate 8 = 5.75s. Total = 1 + 1 + 5.75 = 7.75s.
	if got := eng.Now(); got != 7750*sim.Millisecond {
		t.Fatalf("finished at %v", got)
	}
}

func TestRuntimeSameAllocationNoPenalty(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	p.ReallocPenalty = 10 * sim.Second
	rt := New(eng, p, p.Request, nil, Hooks{})
	rt.SetAllocation(4)
	eng.At(sim.Second, "same", func() { rt.SetAllocation(4) })
	eng.Run(sim.Forever)
	// 50 serial at rate 4 = 12.5s; any penalty would push past that.
	if got := eng.Now(); got != 12500*sim.Millisecond {
		t.Fatalf("finished at %v (penalty charged on no-op realloc?)", got)
	}
}

func TestRuntimeGrantAboveRequestClamped(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	rt := New(eng, p, 4, nil, Hooks{})
	rt.SetAllocation(50)
	if rt.effective != 4 {
		t.Fatalf("effective = %d, want request cap 4", rt.effective)
	}
}

func TestRuntimeZeroAllocationStalls(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	rt := New(eng, p, 8, nil, Hooks{})
	rt.SetAllocation(0)
	eng.Run(100 * sim.Second)
	if rt.done || rt.IterationsDone() != 0 {
		t.Fatal("app progressed with zero processors")
	}
	rt.SetAllocation(8)
	eng.Run(sim.Forever)
	if !rt.done {
		t.Fatal("app did not resume")
	}
}

func TestRuntimeDirtyIterationNotReported(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	p.BaselineIterations = 1
	p.BaselineProcs = 2
	var perf []selfanalyzer.Measurement
	rt := New(eng, p, 8, analyzer(p), Hooks{
		OnPerformance: func(m selfanalyzer.Measurement) { perf = append(perf, m) },
	})
	rt.SetAllocation(2)
	// Mid-iteration grant change: iteration 0 runs at 2 (baseline cap), so
	// a change 2 -> 3 effective... baseline cap keeps it at 2. Change the
	// request? Instead change after baseline: schedule a change mid
	// iteration 1.
	eng.At(6*sim.Second, "change", func() { rt.SetAllocation(6) })
	eng.Run(sim.Forever)
	// Iteration 1 (first post-baseline) is dirty, so the first post-baseline
	// measurement comes from a later iteration at 6 procs.
	if len(perf) < 2 {
		t.Fatalf("measurements = %d", len(perf))
	}
	for _, m := range perf[1:] {
		if m.Procs != 6 {
			t.Fatalf("post-baseline measurement at %d procs", m.Procs)
		}
	}
}

func TestRuntimeRawMode(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	var done bool
	rt := New(eng, p, 8, nil, Hooks{OnDone: func() { done = true }})
	rt.SetRawRate(5, 8)
	eng.Run(sim.Forever)
	if !done {
		t.Fatal("raw mode app did not finish")
	}
	// 50 serial at rate 5 = 10s.
	if eng.Now() != 10*sim.Second {
		t.Fatalf("finished at %v", eng.Now())
	}
}

func TestRuntimeRawModeRejectsSetAllocation(t *testing.T) {
	eng := sim.NewEngine()
	rt := New(eng, prof4(), 8, nil, Hooks{})
	rt.SetRawRate(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rt.SetAllocation(4)
}

func TestRuntimeOnIterationHook(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	count := 0
	rt := New(eng, p, 8, nil, Hooks{OnIteration: func(app.IterationSample) { count++ }})
	rt.SetAllocation(8)
	eng.Run(sim.Forever)
	if count != p.Iterations {
		t.Fatalf("iteration hooks = %d, want %d", count, p.Iterations)
	}
	if !rt.exec.Done() {
		t.Fatalf("work remains after %d iterations", count)
	}
}

func TestRuntimeInvalidRequestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(sim.NewEngine(), prof4(), 0, nil, Hooks{})
}

func TestRuntimeReallocDuringPerfCallback(t *testing.T) {
	// The RM typically reacts to OnPerformance by immediately changing the
	// allocation; the runtime must handle the reentrant call.
	eng := sim.NewEngine()
	p := prof4()
	p.BaselineIterations = 1
	p.BaselineProcs = 1
	var rt *Runtime
	first := true
	rt = New(eng, p, 8, analyzer(p), Hooks{
		OnPerformance: func(m selfanalyzer.Measurement) {
			if first {
				first = false
				rt.SetAllocation(8)
			}
		},
	})
	rt.SetAllocation(2)
	eng.Run(sim.Forever)
	if !rt.done {
		t.Fatal("did not finish")
	}
}

func TestBinaryOnlyDelaysMeasurements(t *testing.T) {
	mk := func(binaryOnly bool) int {
		eng := sim.NewEngine()
		p := app.ProfileFor(app.BT)
		prof := *p
		prof.Iterations = 20
		var firstReport int = -1
		an := selfanalyzer.MustNew(selfanalyzer.ConfigFor(&prof, 0), nil)
		var rt *Runtime
		rt = New(eng, &prof, 30, an, Hooks{
			OnPerformance: func(m selfanalyzer.Measurement) {
				if firstReport < 0 {
					firstReport = rt.IterationsDone()
				}
			},
		})
		rt.SetBinaryOnly(binaryOnly)
		rt.SetAllocation(30)
		eng.Run(sim.Forever)
		if !rt.done {
			t.Fatal("did not finish")
		}
		return firstReport
	}
	instrumented := mk(false)
	binary := mk(true)
	if instrumented < 0 || binary < 0 {
		t.Fatalf("no reports: instrumented=%d binary=%d", instrumented, binary)
	}
	if binary <= instrumented {
		t.Fatalf("binary-only first report at iteration %d, instrumented at %d — want later",
			binary, instrumented)
	}
}

func TestStructureKnownStates(t *testing.T) {
	eng := sim.NewEngine()
	p := app.ProfileFor(app.Apsi)
	rt := New(eng, p, 2, nil, Hooks{})
	if !rt.StructureKnown() {
		t.Fatal("instrumented runtime must know its structure")
	}
	rt.SetBinaryOnly(true)
	if rt.StructureKnown() {
		t.Fatal("binary-only runtime must start unknown")
	}
	rt.SetBinaryOnly(false)
	if !rt.StructureKnown() {
		t.Fatal("disabling binary-only restores knowledge")
	}
}

func TestSetRateFactor(t *testing.T) {
	eng := sim.NewEngine()
	p := prof4()
	rt := New(eng, p, 8, nil, Hooks{})
	rt.SetAllocation(8)
	// Halving the rate doubles the remaining time.
	rt.SetRateFactor(0.5)
	eng.Run(sim.Forever)
	// 50 serial at rate 8*0.5=4 => 12.5s.
	if got := eng.Now(); got != 12500*sim.Millisecond {
		t.Fatalf("finished at %v", got)
	}
}

func TestSetRateFactorValidation(t *testing.T) {
	eng := sim.NewEngine()
	rt := New(eng, prof4(), 8, nil, Hooks{})
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("factor %v accepted", bad)
				}
			}()
			rt.SetRateFactor(bad)
		}()
	}
	rt.SetRateFactor(1) // no-op must not panic
}
