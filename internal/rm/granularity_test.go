package rm

import (
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/policy"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
)

// startGranular creates an instrumented runtime with allocation granularity
// g under mgr.
func startGranular(e *env, mgr Manager, id sched.JobID, class app.Class, request, g int, onDone func()) *nthlib.Runtime {
	prof := app.ProfileFor(class)
	an := selfanalyzer.MustNew(selfanalyzer.ConfigFor(prof, 0), nil)
	rt := nthlib.New(e.eng, prof, request, an, nthlib.Hooks{
		OnPerformance: func(m selfanalyzer.Measurement) { mgr.ReportPerformance(id, m) },
		OnDone: func() {
			mgr.JobFinished(id)
			if onDone != nil {
				onDone()
			}
		},
	})
	rt.SetGranularity(g)
	mgr.StartJob(id, rt)
	return rt
}

func TestRigidJobAllOrNothing(t *testing.T) {
	e := newEnv(60)
	mgr := NewSpaceManager(e.eng, e.mach, policy.NewEquipartition(), e.rec)
	// A malleable bt takes the whole machine first.
	a := startJob(e, mgr, 0, app.BT, 40, nil)
	if a.Allocated() != 40 {
		t.Fatalf("malleable alloc = %d", a.Allocated())
	}
	// A rigid 30-CPU job cannot fit in the remaining 20 even though
	// Equipartition would plan 30 for it: it must wait at zero.
	done := false
	b := startGranular(e, mgr, 1, app.BT, 30, 30, func() { done = true })
	if b.Allocated() != 0 && b.Allocated() != 30 {
		t.Fatalf("rigid job got a partial grant: %d", b.Allocated())
	}
	// Equipartition replans at arrival: job a shrinks to 30, so the rigid
	// job fits exactly.
	e.eng.Run(600 * sim.Second)
	if !done {
		t.Fatal("rigid job never ran")
	}
}

func TestRigidJobWaitsForSpace(t *testing.T) {
	e := newEnv(40)
	mgr := NewSpaceManager(e.eng, e.mach, policy.NewEquipartition(), e.rec)
	startJob(e, mgr, 0, app.Swim, 30, nil) // short malleable job
	rigid := startGranular(e, mgr, 1, app.BT, 30, 30, nil)
	// Equipartition plans 20/20; the rigid job rounds to 0 — fragmentation.
	if rigid.Allocated() != 0 {
		t.Fatalf("rigid alloc = %d before space frees", rigid.Allocated())
	}
	if rigid.Effective() != 0 {
		t.Fatalf("rigid effective = %d", rigid.Effective())
	}
	// When swim completes, the rigid job gets its 30 at once.
	e.eng.Run(120 * sim.Second)
	if got := rigid.Allocated(); got != 30 {
		t.Fatalf("rigid alloc = %d after space freed, want 30", got)
	}
}

func TestHybridGranularityMultiples(t *testing.T) {
	e := newEnv(60)
	mgr := NewSpaceManager(e.eng, e.mach, core.MustNew(core.DefaultParams()), e.rec)
	// MPI+OpenMP hydro2d with 4 processes: allocations are multiples of 4.
	rt := startGranular(e, mgr, 0, app.Hydro2D, 28, 4, nil)
	for i := 0; i < 400; i++ {
		if !e.eng.Step() {
			break
		}
		if eff := rt.Effective(); eff%4 != 0 {
			t.Fatalf("effective parallelism %d not a multiple of 4", eff)
		}
		if rt.Done() {
			break
		}
	}
}

func TestHybridPDPAConverges(t *testing.T) {
	e := newEnv(60)
	pdpa := core.MustNew(core.DefaultParams())
	mgr := NewSpaceManager(e.eng, e.mach, pdpa, e.rec)
	rt := startGranular(e, mgr, 0, app.Hydro2D, 28, 4, nil)
	// Step to PDPA's transition to Stable, which must come before the job
	// finishes.
	for pdpa.StateOf(0) != core.Stable {
		if rt.Done() || !e.eng.Step() {
			t.Fatalf("hybrid hydro2d finished at %v before PDPA reached Stable (state %v)", e.eng.Now(), pdpa.StateOf(0))
		}
	}
	got := rt.Allocated()
	if got%4 != 0 {
		t.Fatalf("allocation %d not a multiple of the process count", got)
	}
	// The efficiency frontier (~10) rounds to 8 or 12 in 4-CPU units.
	if got < 4 || got > 12 {
		t.Fatalf("hybrid hydro2d settled at %d, want 4..12", got)
	}
}

func TestGranularWaitingJobEventuallyStartsUnderPDPA(t *testing.T) {
	e := newEnv(32)
	pdpa := core.MustNew(core.DefaultParams())
	mgr := NewSpaceManager(e.eng, e.mach, pdpa, e.rec)
	startJob(e, mgr, 0, app.Swim, 30, nil) // occupies 30 of 32
	done := false
	startGranular(e, mgr, 1, app.BT, 24, 24, func() { done = true })
	e.eng.RunUntilIdle()
	if !done {
		t.Fatal("rigid job starved forever despite processors freeing up")
	}
}

func TestGranularityClamping(t *testing.T) {
	eng := sim.NewEngine()
	prof := app.ProfileFor(app.BT)
	rt := nthlib.New(eng, prof, 8, nil, nthlib.Hooks{})
	rt.SetGranularity(0)
	if rt.Granularity() != 1 {
		t.Fatalf("gran = %d", rt.Granularity())
	}
	rt.SetGranularity(99)
	if rt.Granularity() != 8 {
		t.Fatalf("gran = %d, want clamped to request", rt.Granularity())
	}
}

func TestGranularityFreesMachineOnCompletion(t *testing.T) {
	e := newEnv(16)
	mgr := NewSpaceManager(e.eng, e.mach, policy.NewEquipartition(), e.rec)
	startGranular(e, mgr, 0, app.Apsi, 8, 8, nil)
	e.eng.RunUntilIdle()
	if e.mach.FreeCPUs() != 16 {
		t.Fatalf("free = %d after completion", e.mach.FreeCPUs())
	}
}
