package rm

import (
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
)

// phasedProfile returns an application that scales like bt.A for its first
// 40 iterations and then collapses to apsi-like behaviour — the paper's
// "iterative parallel region with a variable working set" (Section 3.1).
func phasedProfile() *app.Profile {
	p := *app.ProfileFor(app.BT)
	p.Name = "phased"
	p.Iterations = 120
	p.Phases = []app.Phase{
		{FromIteration: 40, Speedup: app.ProfileFor(app.Apsi).Speedup},
	}
	return &p
}

func TestPhasedProfileValidate(t *testing.T) {
	p := phasedProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.SpeedupAt(0).Speedup(30) < 20 {
		t.Fatal("early phase should scale like bt")
	}
	if p.SpeedupAt(40).Speedup(30) > 2 {
		t.Fatal("late phase should not scale")
	}
	bad := phasedProfile()
	bad.Phases[0].FromIteration = 0
	if bad.Validate() == nil {
		t.Fatal("phase at iteration 0 accepted")
	}
	bad = phasedProfile()
	bad.Phases = append(bad.Phases, app.Phase{FromIteration: 10, Speedup: bad.Speedup})
	if bad.Validate() == nil {
		t.Fatal("unsorted phases accepted")
	}
}

func TestPDPAAdaptsToPhaseCollapse(t *testing.T) {
	e := newEnv(60)
	pdpa := recordingPDPA()
	mgr := NewSpaceManager(e.eng, e.mach, pdpa, e.rec)
	prof := phasedProfile()
	an := selfanalyzer.MustNew(selfanalyzer.ConfigFor(prof, 0), nil)
	done := false
	rt := nthlib.New(e.eng, prof, 30, an, nthlib.Hooks{
		OnPerformance: func(m selfanalyzer.Measurement) { mgr.ReportPerformance(0, m) },
		OnDone:        func() { mgr.JobFinished(0); done = true },
	})
	mgr.StartJob(0, rt)

	// Phase 1: the search grows the job to its request.
	runUntil(e.eng, func() bool { return done || rt.IterationsDone() >= 35 })
	allocDuringPhase1 := rt.Allocated()
	if allocDuringPhase1 < 24 {
		t.Fatalf("phase-1 allocation = %d, want near the request", allocDuringPhase1)
	}

	// Phase 2: scalability collapses; the measured efficiency falls below
	// the target and PDPA must walk the allocation down.
	runUntil(e.eng, func() bool { return done || rt.Allocated() <= 4 })
	if done {
		t.Fatalf("job finished before PDPA adapted (alloc still %d)", rt.Allocated())
	}
	if got := rt.Allocated(); got > 4 {
		t.Fatalf("post-collapse allocation = %d, want <= 4", got)
	}
	if st := pdpaState(pdpa, 0); st != core.Dec && st != core.Stable {
		t.Fatalf("state = %v", st)
	}
}

func TestPhaseChangeMidIterationRates(t *testing.T) {
	// The iteration straddling the phase boundary runs at the old rate
	// until its boundary; the next iteration uses the new curve.
	eng := sim.NewEngine()
	prof := phasedProfile()
	prof.Iterations = 42
	done := false
	rt := nthlib.New(eng, prof, 30, nil, nthlib.Hooks{OnDone: func() { done = true }})
	rt.SetAllocation(30)
	runUntil(eng, func() bool { return done || rt.IterationsDone() >= 39 })
	fastRate := rt.Profile().SpeedupAt(39).Speedup(30)
	runUntil(eng, func() bool { return done || rt.IterationsDone() >= 41 })
	// After iteration 40 the apsi-like curve governs: progress slows ~16x.
	slowRate := rt.Profile().SpeedupAt(40).Speedup(30)
	if slowRate >= fastRate/10 {
		t.Fatalf("phase rates not distinct: %v vs %v", fastRate, slowRate)
	}
	eng.Run(sim.Forever)
	if !done {
		t.Fatal("phased app did not finish")
	}
}
