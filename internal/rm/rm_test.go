package rm

import (
	"errors"
	"slices"
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/machine"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/policy"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

// env bundles engine + machine + recorder for manager tests.
type env struct {
	eng  *sim.Engine
	mach *machine.Machine
	rec  *trace.Recorder
}

func newEnv(ncpu int) *env {
	rec := trace.NewRecorder(ncpu)
	return &env{eng: sim.NewEngine(), mach: machine.New(ncpu, rec), rec: rec}
}

func newIRIX(e *env) *IRIXManager {
	m := new(IRIXManager)
	m.Reset(e.eng, e.mach, e.rec)
	return m
}

func equipartition() *policy.Equipartition {
	p := new(policy.Equipartition)
	p.Reset()
	return p
}

// recordingPDPA returns a PDPA policy that records its transitions, so a
// test can follow a job's state with pdpaState.
func recordingPDPA() *core.PDPA {
	p := core.MustNew(core.DefaultParams())
	p.RecordHistory(true)
	return p
}

// pdpaState returns the state job last entered in p's transition history,
// NoRef before its first transition.
func pdpaState(p *core.PDPA, job sched.JobID) core.State {
	st := core.NoRef
	for _, tr := range p.History() {
		if tr.Job == job {
			st = tr.To
		}
	}
	return st
}

// runUntil advances eng a millisecond at a time until cond holds; cond
// must turn true once the test's job finishes.
func runUntil(eng *sim.Engine, cond func() bool) {
	for !cond() {
		eng.Run(eng.Now() + sim.Millisecond)
	}
}

// startJob creates an instrumented runtime under mgr and returns it.
func startJob(e *env, mgr Manager, id sched.JobID, class app.Class, request int, onDone func()) *nthlib.Runtime {
	prof := app.ProfileFor(class)
	an := selfanalyzer.MustNew(selfanalyzer.ConfigFor(prof, 0), nil)
	var rt *nthlib.Runtime
	rt = nthlib.New(e.eng, prof, request, an, nthlib.Hooks{
		OnPerformance: func(m selfanalyzer.Measurement) { mgr.ReportPerformance(id, m) },
		OnDone: func() {
			mgr.JobFinished(id)
			if onDone != nil {
				onDone()
			}
		},
	})
	mgr.StartJob(id, rt)
	return rt
}

func TestSpaceManagerEquipartitionSplit(t *testing.T) {
	e := newEnv(60)
	mgr := NewSpaceManager(e.eng, e.mach, equipartition(), e.rec)
	a := startJob(e, mgr, 0, app.BT, 30, nil)
	b := startJob(e, mgr, 1, app.BT, 30, nil)
	if a.Allocated() != 30 {
		t.Fatalf("first job alone should get its request, got %d", a.Allocated())
	}
	if a.Allocated() != 30 || b.Allocated() != 30 {
		t.Fatalf("two jobs on 60: %d/%d", a.Allocated(), b.Allocated())
	}
	c := startJob(e, mgr, 2, app.BT, 30, nil)
	if a.Allocated() != 20 || b.Allocated() != 20 || c.Allocated() != 20 {
		t.Fatalf("three jobs on 60: %d/%d/%d, want 20 each",
			a.Allocated(), b.Allocated(), c.Allocated())
	}
	if mgr.Running() != 3 || mgr.Name() != "Equip" {
		t.Fatalf("running=%d name=%s", mgr.Running(), mgr.Name())
	}
}

// idPlusOne plans ID+1 processors for every job and records the job order
// of the last view it saw.
type idPlusOne struct{ order []sched.JobID }

func (*idPlusOne) Name() string                                                     { return "id+1" }
func (*idPlusOne) JobStarted(now sim.Time, job *sched.JobView)                      {}
func (*idPlusOne) JobFinished(now sim.Time, id sched.JobID)                         {}
func (*idPlusOne) ReportPerformance(now sim.Time, j *sched.JobView, r sched.Report) {}
func (*idPlusOne) WantsNewJob(v sched.View) bool                                    { return true }
func (p *idPlusOne) Plan(v sched.View) []int {
	p.order = p.order[:0]
	plan := make([]int, len(v.Jobs))
	for i, j := range v.Jobs {
		p.order = append(p.order, j.ID)
		plan[i] = int(j.ID) + 1
	}
	return plan
}

// TestSpaceManagerAppliesPlanByPosition: jobs started out of id order reach
// the policy sorted by id, and entry i of the plan goes to v.Jobs[i].
func TestSpaceManagerAppliesPlanByPosition(t *testing.T) {
	e := newEnv(60)
	pol := &idPlusOne{}
	mgr := NewSpaceManager(e.eng, e.mach, pol, e.rec)
	rts := map[sched.JobID]*nthlib.Runtime{}
	for _, id := range []sched.JobID{7, 3, 5} {
		rts[id] = startJob(e, mgr, id, app.BT, 30, nil)
	}
	check := func(ids ...sched.JobID) {
		t.Helper()
		if !slices.Equal(pol.order, ids) {
			t.Fatalf("policy saw jobs %v, want %v", pol.order, ids)
		}
		for _, id := range ids {
			if got := rts[id].Allocated(); got != int(id)+1 {
				t.Fatalf("job %d holds %d processors, want %d", id, got, id+1)
			}
		}
	}
	check(3, 5, 7)
	mgr.JobFinished(5)
	check(3, 7)
}

func TestSpaceManagerRunToCompletionMinimum(t *testing.T) {
	e := newEnv(4)
	mgr := NewSpaceManager(e.eng, e.mach, equipartition(), e.rec)
	rts := make([]*nthlib.Runtime, 6)
	for i := range rts {
		rts[i] = startJob(e, mgr, sched.JobID(i), app.BT, 30, nil)
	}
	// 6 jobs on 4 CPUs: equipartition gives 1 to four jobs, 0 to two; the
	// run-to-completion pass cannot conjure CPUs, but nobody may hold 2
	// while another holds 0.
	zero, two := 0, 0
	for _, rt := range rts {
		switch rt.Allocated() {
		case 0:
			zero++
		case 2:
			two++
		}
	}
	if two > 0 && zero > 0 {
		t.Fatalf("starvation with slack: allocations %v", rts)
	}
}

func TestSpaceManagerPDPAFullRun(t *testing.T) {
	e := newEnv(60)
	mgr := NewSpaceManager(e.eng, e.mach, core.MustNew(core.DefaultParams()), e.rec)
	done := 0
	startJob(e, mgr, 0, app.Apsi, 2, func() { done++ })
	e.eng.Run(sim.Forever)
	if done != 1 {
		t.Fatal("apsi did not finish under PDPA")
	}
	if mgr.Running() != 0 {
		t.Fatalf("running = %d after completion", mgr.Running())
	}
	if e.mach.FreeCPUs() != 60 {
		t.Fatalf("free = %d after completion", e.mach.FreeCPUs())
	}
}

func TestSpaceManagerPDPAConvergesHydro(t *testing.T) {
	e := newEnv(60)
	pdpa := recordingPDPA()
	mgr := NewSpaceManager(e.eng, e.mach, pdpa, e.rec)
	done := false
	rt := startJob(e, mgr, 0, app.Hydro2D, 30, func() { done = true })
	// Run until the search settles: the check is at PDPA's transition to
	// Stable, which must come before the job finishes.
	stable := func() bool { return pdpaState(pdpa, 0) == core.Stable }
	runUntil(e.eng, func() bool { return done || stable() })
	if !stable() {
		t.Fatalf("hydro2d finished at %v before PDPA reached Stable (state %v)", e.eng.Now(), pdpaState(pdpa, 0))
	}
	got := rt.Allocated()
	if got < 6 || got > 10 {
		t.Fatalf("hydro2d allocation after settling = %d, want 6..10", got)
	}
}

func TestSpaceManagerAdmissionCallback(t *testing.T) {
	e := newEnv(60)
	mgr := NewSpaceManager(e.eng, e.mach, equipartition(), e.rec)
	pokes := 0
	mgr.SetAdmissionChanged(func() { pokes++ })
	startJob(e, mgr, 0, app.Apsi, 2, nil)
	if pokes == 0 {
		t.Fatal("admission callback not invoked on start")
	}
	e.eng.Run(sim.Forever)
	if mgr.Running() != 0 {
		t.Fatal("job not finished")
	}
}

func TestSpaceManagerUnknownJobIgnored(t *testing.T) {
	e := newEnv(8)
	mgr := NewSpaceManager(e.eng, e.mach, equipartition(), e.rec)
	mgr.ReportPerformance(99, selfanalyzer.Measurement{Procs: 4, Speedup: 3})
	mgr.JobFinished(99) // must not panic
}

func TestIRIXManagerBasicRun(t *testing.T) {
	e := newEnv(8)
	mgr := newIRIX(e)
	prof := app.ProfileFor(app.Apsi)
	done := false
	var rt *nthlib.Runtime
	rt = nthlib.New(e.eng, prof, 2, nil, nthlib.Hooks{
		OnDone: func() { mgr.JobFinished(0); done = true },
	})
	mgr.StartJob(0, rt)
	// With 2 threads on 8 CPUs there is no oversubscription: rate is the
	// full S(2), so the finish time matches the dedicated time closely.
	want := prof.DedicatedTime(2)
	// No events must remain (the quantum tick stops with no jobs): a tick
	// that outlived the job would carry the clock past this bound.
	limit := want + 60*sim.Second
	e.eng.SetInterrupt(func() error {
		if e.eng.Now() > limit {
			return errors.New("events still pending")
		}
		return nil
	})
	e.eng.Run(sim.Forever)
	if err := e.eng.InterruptErr(); err != nil {
		t.Fatalf("pending events after completion: %v", err)
	}
	if !done {
		t.Fatal("job did not finish under IRIX")
	}
	got := e.eng.Now()
	if got < want || got > want+2*sim.Second {
		t.Fatalf("finish at %v, want ~%v", got, want)
	}
}

func TestIRIXOversubscriptionSlowsJobs(t *testing.T) {
	runOne := func(extraJobs int) sim.Time {
		e := newEnv(8)
		mgr := newIRIX(e)
		prof := app.ProfileFor(app.Apsi)
		var finished sim.Time
		rt := nthlib.New(e.eng, prof, 2, nil, nthlib.Hooks{
			OnDone: func() { mgr.JobFinished(0); finished = e.eng.Now() },
		})
		mgr.StartJob(0, rt)
		for i := 1; i <= extraJobs; i++ {
			id := sched.JobID(i)
			p := app.ProfileFor(app.BT)
			r := nthlib.New(e.eng, p, 8, nil, nthlib.Hooks{
				OnDone: func() { mgr.JobFinished(id) },
			})
			mgr.StartJob(id, r)
		}
		e.eng.Run(4000 * sim.Second)
		return finished
	}
	alone := runOne(0)
	crowded := runOne(3) // 2 + 24 threads on 8 CPUs
	if crowded < 2*alone {
		t.Fatalf("oversubscription barely hurt: alone %v, crowded %v", alone, crowded)
	}
}

func TestIRIXGeneratesMigrationsAndShortBursts(t *testing.T) {
	e := newEnv(8)
	mgr := newIRIX(e)
	for i := 0; i < 3; i++ {
		id := sched.JobID(i)
		prof := app.ProfileFor(app.Hydro2D)
		rt := nthlib.New(e.eng, prof, 6, nil, nthlib.Hooks{
			OnDone: func() { mgr.JobFinished(id) },
		})
		mgr.StartJob(id, rt)
	}
	e.eng.Run(60 * sim.Second)
	e.rec.Close(e.eng.Now())
	s := e.rec.Stats()
	if s.Migrations < 100 {
		t.Fatalf("migrations = %d, want many under oversubscription", s.Migrations)
	}
	if s.AvgBurst > 2*sim.Second {
		t.Fatalf("avg burst = %v, want short bursts", s.AvgBurst)
	}
}

func TestIRIXThreadAdjustment(t *testing.T) {
	e := newEnv(8)
	mgr := newIRIX(e)
	ids := []sched.JobID{0, 1}
	for _, id := range ids {
		id := id
		prof := app.ProfileFor(app.BT)
		rt := nthlib.New(e.eng, prof, 8, nil, nthlib.Hooks{
			OnDone: func() { mgr.JobFinished(id) },
		})
		mgr.StartJob(id, rt)
	}
	// 16 threads on 8 CPUs; OMP_DYNAMIC should shed threads over time, one
	// every irixAdjustEvery quanta (10 s).
	e.eng.Run(30 * sim.Second)
	total := 0
	for _, j := range mgr.order {
		total += j.threads
	}
	if total >= 16 {
		t.Fatalf("threads = %d, OMP_DYNAMIC did not adapt", total)
	}
}

func TestIRIXSpaceSharingStability(t *testing.T) {
	// Contrast: same workload under Equipartition produces almost no
	// migrations compared with IRIX (Table 2's point).
	run := func(mk func(e *env) Manager) trace.Stats {
		e := newEnv(8)
		mgr := mk(e)
		for i := 0; i < 3; i++ {
			id := sched.JobID(i)
			prof := app.ProfileFor(app.Hydro2D)
			var an *selfanalyzer.Analyzer
			if mgr.Name() != "IRIX" {
				an = selfanalyzer.MustNew(selfanalyzer.ConfigFor(prof, 0), nil)
			}
			rt := nthlib.New(e.eng, prof, 6, an, nthlib.Hooks{
				OnPerformance: func(m selfanalyzer.Measurement) { mgr.ReportPerformance(id, m) },
				OnDone:        func() { mgr.JobFinished(id) },
			})
			mgr.StartJob(id, rt)
		}
		e.eng.Run(60 * sim.Second)
		e.rec.Close(e.eng.Now())
		return e.rec.Stats()
	}
	irix := run(func(e *env) Manager { return newIRIX(e) })
	equip := run(func(e *env) Manager { return NewSpaceManager(e.eng, e.mach, equipartition(), e.rec) })
	if irix.Migrations < 20*(equip.Migrations+1) {
		t.Fatalf("IRIX %d migrations vs Equip %d: stability gap too small",
			irix.Migrations, equip.Migrations)
	}
	if irix.AvgBurst >= equip.AvgBurst {
		t.Fatalf("IRIX bursts (%v) should be shorter than Equip (%v)",
			irix.AvgBurst, equip.AvgBurst)
	}
}
