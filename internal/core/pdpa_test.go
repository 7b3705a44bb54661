package core

import (
	"cmp"
	"slices"
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
)

// harness drives a PDPA instance against a synthetic application with a true
// speedup curve, simulating the manager's grant-and-report loop.
type harness struct {
	t     *testing.T
	p     *PDPA
	view  sched.View
	jobs  map[sched.JobID]*sched.JobView
	curve map[sched.JobID]app.SpeedupModel
	now   sim.Time
}

func newHarness(t *testing.T, params Params, ncpu int) *harness {
	return &harness{
		t:     t,
		p:     MustNew(params),
		view:  sched.View{NCPU: ncpu},
		jobs:  map[sched.JobID]*sched.JobView{},
		curve: map[sched.JobID]app.SpeedupModel{},
	}
}

func (h *harness) start(id sched.JobID, request int, curve app.SpeedupModel) {
	jv := &sched.JobView{ID: id, Name: "job", Request: request}
	h.jobs[id] = jv
	h.curve[id] = curve
	h.view.Jobs = append(h.view.Jobs, jv)
	slices.SortFunc(h.view.Jobs, func(a, b *sched.JobView) int { return cmp.Compare(a.ID, b.ID) })
	h.p.JobStarted(h.now, jv)
	h.plan()
}

func (h *harness) finish(id sched.JobID) {
	h.p.JobFinished(h.now, id)
	delete(h.jobs, id)
	jobs := h.view.Jobs[:0]
	for _, j := range h.view.Jobs {
		if j.ID != id {
			jobs = append(jobs, j)
		}
	}
	h.view.Jobs = jobs
	h.plan()
}

// plan applies the policy plan with the manager's clamping rules: shrinks
// first, then grows bounded by free processors.
func (h *harness) plan() {
	plan := h.p.Plan(h.view)
	for i, want := range plan {
		jv := h.view.Jobs[i]
		if want < jv.Allocated {
			jv.Allocated = want
		}
	}
	for i, want := range plan {
		jv := h.view.Jobs[i]
		if want > jv.Allocated {
			free := h.view.FreeCPUs()
			grant := want - jv.Allocated
			if grant > free {
				grant = free
			}
			jv.Allocated += grant
		}
	}
	// Run-to-completion: every running job keeps at least one processor,
	// preempting from the largest allocation if the machine is full.
	for _, jv := range h.jobs {
		for jv.Allocated < 1 {
			var biggest *sched.JobView
			for _, other := range h.jobs {
				if biggest == nil || other.Allocated > biggest.Allocated {
					biggest = other
				}
			}
			if biggest == nil || biggest.Allocated <= 1 {
				break
			}
			biggest.Allocated--
			jv.Allocated++
		}
	}
}

// report delivers a measurement at the job's current allocation using its
// true curve, then replans.
func (h *harness) report(id sched.JobID) {
	h.now += sim.Second
	jv := h.jobs[id]
	s := h.curve[id].Speedup(jv.Allocated)
	r := sched.Report{
		At: h.now, Procs: jv.Allocated,
		Speedup: s, Efficiency: s / float64(jv.Allocated),
	}
	jv.Reports = append(jv.Reports, r)
	h.p.ReportPerformance(h.now, jv, r)
	h.plan()
}

// settle reports until the job stops changing state or allocation.
func (h *harness) settle(id sched.JobID, maxRounds int) {
	for i := 0; i < maxRounds; i++ {
		before := h.jobs[id].Allocated
		beforeState := h.p.StateOf(id)
		h.report(id)
		if h.jobs[id].Allocated == before && h.p.StateOf(id) == beforeState && beforeState == Stable {
			return
		}
	}
}

func btCurve() app.SpeedupModel    { return app.ProfileFor(app.BT).Speedup }
func hydroCurve() app.SpeedupModel { return app.ProfileFor(app.Hydro2D).Speedup }
func apsiCurve() app.SpeedupModel  { return app.ProfileFor(app.Apsi).Speedup }
func swimCurve() app.SpeedupModel  { return app.ProfileFor(app.Swim).Speedup }

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{TargetEff: 0, HighEff: 0.9, Step: 4, BaseMPL: 4},
		{TargetEff: 0.9, HighEff: 0.7, Step: 4, BaseMPL: 4},
		{TargetEff: 0.7, HighEff: 0.9, Step: 0, BaseMPL: 4},
		{TargetEff: 0.7, HighEff: 0.9, Step: 4, BaseMPL: 0},
		{TargetEff: 0.7, HighEff: 0.9, Step: 4, BaseMPL: 4, MaxStableTransitions: -1},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{NoRef: "NO_REF", Inc: "INC", Dec: "DEC", Stable: "STABLE"}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%v", s)
		}
	}
	if State(9).String() != "state(9)" {
		t.Fatal("unknown state string")
	}
}

func TestInitialAllocationMinRequestFree(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, btCurve())
	if got := h.jobs[1].Allocated; got != 30 {
		t.Fatalf("empty machine: alloc = %d, want request 30", got)
	}
	h.start(2, 30, btCurve())
	if got := h.jobs[2].Allocated; got != 30 {
		t.Fatalf("second job alloc = %d, want 30", got)
	}
	h.start(3, 30, btCurve())
	if got := h.jobs[3].Allocated; got != 1 {
		t.Fatalf("full machine: alloc = %d, want minimum 1", got)
	}
}

func TestNoRefTransitions(t *testing.T) {
	// apsi at its request of 2 has eff ~0.71: acceptable => STABLE.
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 2, apsiCurve())
	h.report(1)
	if got := h.p.StateOf(1); got != Stable {
		t.Fatalf("apsi at 2: state %v, want STABLE", got)
	}

	// bt at 8 has eff 0.91 > high => INC.
	h2 := newHarness(t, DefaultParams(), 8)
	h2.start(1, 30, btCurve())
	if h2.jobs[1].Allocated != 8 {
		t.Fatalf("alloc = %d", h2.jobs[1].Allocated)
	}
	h2.report(1)
	if got := h2.p.StateOf(1); got != Inc {
		t.Fatalf("bt at 8: state %v, want INC", got)
	}

	// hydro2d at 30 has eff 0.33 < target => DEC.
	h3 := newHarness(t, DefaultParams(), 60)
	h3.start(1, 30, hydroCurve())
	h3.report(1)
	if got := h3.p.StateOf(1); got != Dec {
		t.Fatalf("hydro at 30: state %v, want DEC", got)
	}
	if got := h3.jobs[1].Allocated; got != 26 {
		t.Fatalf("hydro after DEC: alloc = %d, want 26", got)
	}
}

func TestDecConvergesToTargetEfficiency(t *testing.T) {
	// hydro2d must walk down from 30 until efficiency >= 0.7 (at ~8-10).
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, hydroCurve())
	h.settle(1, 20)
	if got := h.p.StateOf(1); got != Stable {
		t.Fatalf("state = %v", got)
	}
	alloc := h.jobs[1].Allocated
	if alloc < 6 || alloc > 10 {
		t.Fatalf("hydro settled at %d, want 6..10", alloc)
	}
	eff := app.Efficiency(hydroCurve(), alloc)
	if eff < 0.7 {
		t.Fatalf("settled efficiency %v < target", eff)
	}
}

func TestApsiShrinksToMinimumOne(t *testing.T) {
	// apsi requesting 30 (untuned): must walk down to ~2 or fewer.
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, apsiCurve())
	h.settle(1, 20)
	if got := h.jobs[1].Allocated; got > 2 {
		t.Fatalf("untuned apsi settled at %d, want <= 2", got)
	}
	if h.p.StateOf(1) != Stable {
		t.Fatalf("state = %v", h.p.StateOf(1))
	}
}

func TestIncGrowsWhileScalable(t *testing.T) {
	// bt starting small on a big machine must grow toward its request.
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, btCurve())
	h.jobs[1].Allocated = 8 // pretend only 8 were free at arrival
	h.settle(1, 30)
	got := h.jobs[1].Allocated
	if got != 30 {
		t.Fatalf("bt settled at %d, want its full request 30", got)
	}
}

func TestRelativeSpeedupStopsSwim(t *testing.T) {
	// swim from 12: superlinear up to ~16, then relative speedup collapses.
	// The INC chain must stop well short of the request even though
	// efficiency stays above high_eff (superlinear).
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, swimCurve())
	h.jobs[1].Allocated = 12
	h.settle(1, 30)
	got := h.jobs[1].Allocated
	if got < 14 || got > 26 {
		t.Fatalf("swim settled at %d, want 16..24 (relative-speedup stop)", got)
	}
}

func TestIncWithoutFreeProcessorsKeepsWaiting(t *testing.T) {
	h := newHarness(t, DefaultParams(), 8)
	h.start(1, 30, btCurve())
	h.report(1) // eff(8)=0.95 => INC, but no free CPUs: stays at 8
	if h.jobs[1].Allocated != 8 {
		t.Fatalf("alloc grew to %d with no free CPUs", h.jobs[1].Allocated)
	}
	h.report(1) // still nothing granted: keep desiring the step in INC
	if h.p.StateOf(1) != Inc {
		t.Fatalf("state = %v, want INC (waiting for the grant)", h.p.StateOf(1))
	}
	// When processors free up, the pending step is granted immediately and
	// the application resumes its search.
	h.view.NCPU = 60
	h.plan()
	if h.jobs[1].Allocated != 12 {
		t.Fatalf("alloc = %d after CPUs freed, want 12", h.jobs[1].Allocated)
	}
	h.settle(1, 30)
	if h.jobs[1].Allocated != 30 {
		t.Fatalf("alloc = %d after settling on a big machine, want 30", h.jobs[1].Allocated)
	}
}

func TestIncAtRequestCapSettles(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 8, btCurve()) // request 8: eff(8)=0.95 > high but capped
	h.report(1)
	if h.p.StateOf(1) != Stable {
		t.Fatalf("state = %v, want STABLE at the request cap", h.p.StateOf(1))
	}
	if h.jobs[1].Allocated != 8 {
		t.Fatalf("alloc = %d", h.jobs[1].Allocated)
	}
}

func TestStableLosesStepOnlyBelowTarget(t *testing.T) {
	// Craft a curve: great at 8, mediocre at 12 (eff < target): after
	// growing 8->12 the app must fall back to 8.
	curve := app.MustTable(
		app.Point{Procs: 1, Speedup: 1},
		app.Point{Procs: 8, Speedup: 7.6},  // eff 0.95
		app.Point{Procs: 12, Speedup: 7.9}, // eff 0.66 < target
	)
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, curve)
	h.jobs[1].Allocated = 8
	h.report(1) // INC to 12
	if h.jobs[1].Allocated != 12 {
		t.Fatalf("alloc = %d, want 12", h.jobs[1].Allocated)
	}
	h.report(1) // at 12: rel speedup poor AND eff < target: lose the step
	if h.jobs[1].Allocated != 8 {
		t.Fatalf("alloc = %d, want fallback to 8", h.jobs[1].Allocated)
	}
	if h.p.StateOf(1) != Stable {
		t.Fatalf("state = %v", h.p.StateOf(1))
	}
}

func TestStableKeepsStepAboveTarget(t *testing.T) {
	// Growth 16->20 on swim: rel speedup fails but eff(20)=1.32 >= target:
	// the app keeps 20.
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, swimCurve())
	h.jobs[1].Allocated = 16
	h.report(1) // eff(16)=1.5 > high => INC to 20
	if h.jobs[1].Allocated != 20 {
		t.Fatalf("alloc = %d, want 20", h.jobs[1].Allocated)
	}
	h.report(1)
	if got := h.jobs[1].Allocated; got != 20 && got != 24 {
		t.Fatalf("alloc = %d, want to keep >= 20", got)
	}
}

func TestStableHoldsWithoutChange(t *testing.T) {
	// Re-evaluating identical measurements must not creep the allocation:
	// once STABLE, the allocation is frozen until performance or parameters
	// change.
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, swimCurve())
	h.jobs[1].Allocated = 12
	h.settle(1, 30)
	frozen := h.jobs[1].Allocated
	for i := 0; i < 20; i++ {
		h.report(1)
		if h.jobs[1].Allocated != frozen {
			t.Fatalf("STABLE allocation crept: %d -> %d", frozen, h.jobs[1].Allocated)
		}
	}
}

func TestParameterChangeReevaluatesStable(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, hydroCurve())
	h.settle(1, 30)
	before := h.jobs[1].Allocated // ~6-10 at target 0.7
	// Raise the target: the settled allocation no longer qualifies.
	strict := DefaultParams()
	strict.TargetEff = 0.9
	strict.HighEff = 0.95
	if err := h.p.SetParams(strict); err != nil {
		t.Fatal(err)
	}
	h.settle(1, 30)
	if got := h.jobs[1].Allocated; got >= before {
		t.Fatalf("allocation %d did not shrink after raising target (was %d)", got, before)
	}
}

func TestPingPongGuard(t *testing.T) {
	params := DefaultParams()
	params.MaxStableTransitions = 2
	h := newHarness(t, params, 60)
	h.start(1, 30, hydroCurve())
	h.settle(1, 30)
	// Flap the parameters: each change could pull the app out of STABLE,
	// but the guard caps how many times it may leave.
	lax := params
	lax.TargetEff = 0.3
	lax.HighEff = 0.95
	moves := 0
	last := h.jobs[1].Allocated
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			h.p.SetParams(params)
		} else {
			h.p.SetParams(lax)
		}
		h.report(1)
		if h.jobs[1].Allocated != last {
			moves++
			last = h.jobs[1].Allocated
		}
	}
	if moves > 2*params.MaxStableTransitions+2 {
		t.Fatalf("allocation moved %d times despite ping-pong guard", moves)
	}
}

func TestRunToCompletionMinimumOne(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 2, apsiCurve())
	h.jobs[1].Allocated = 1
	h.report(1) // eff(1) = 1 => fine, STABLE (or INC capped by request)
	if h.jobs[1].Allocated < 1 {
		t.Fatal("allocation below one processor")
	}
}

func TestWantsNewJobBelowBaseMPL(t *testing.T) {
	h := newHarness(t, DefaultParams(), 100)
	for i := 0; i < 3; i++ {
		h.start(sched.JobID(i), 30, btCurve())
	}
	// 3 jobs (below the base level of 4): admit regardless of the jobs'
	// states — the default-level semantics shared with the fixed-level
	// policies (the run-to-completion minimum finds the newcomer a CPU).
	if !h.p.WantsNewJob(h.view) {
		t.Fatal("admission below base MPL must be allowed")
	}
	// Beyond the base level, a free processor is required.
	h2 := newHarness(t, DefaultParams(), 60)
	for i := 0; i < 4; i++ {
		h2.start(sched.JobID(i), 30, btCurve())
	}
	for i := 0; i < 4; i++ {
		h2.settle(sched.JobID(i), 30)
	}
	if h2.view.FreeCPUs() == 0 && h2.p.WantsNewJob(h2.view) {
		t.Fatal("admitted beyond base MPL with no free processor")
	}
}

func TestWantsNewJobRequiresStability(t *testing.T) {
	h := newHarness(t, DefaultParams(), 200)
	for i := 0; i < 4; i++ {
		h.start(sched.JobID(i), 30, btCurve())
	}
	// All four running but NO_REF: admission beyond base must wait.
	if h.p.WantsNewJob(h.view) {
		t.Fatal("admitted with NO_REF jobs at base MPL")
	}
	for i := 0; i < 4; i++ {
		h.settle(sched.JobID(i), 30)
	}
	if !h.p.WantsNewJob(h.view) {
		t.Fatal("not admitted with all jobs stable and free CPUs")
	}
}

func TestWantsNewJobRequiresFreeCPU(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	for i := 0; i < 4; i++ {
		h.start(sched.JobID(i), 30, btCurve())
	}
	for i := 0; i < 4; i++ {
		h.settle(sched.JobID(i), 30)
	}
	// 4 bt jobs on 60 CPUs: allocations sum to 60 (15 each or so): no free.
	if h.view.FreeCPUs() == 0 && h.p.WantsNewJob(h.view) {
		t.Fatal("admitted with zero free CPUs beyond base MPL")
	}
}

func TestWantsNewJobAllowsDecJobs(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	for i := 0; i < 4; i++ {
		h.start(sched.JobID(i), 2, apsiCurve())
	}
	for i := 0; i < 4; i++ {
		h.report(sched.JobID(i)) // apsi at 2: STABLE immediately
	}
	if !h.p.WantsNewJob(h.view) {
		t.Fatal("apsi workload should admit more jobs (paper reaches ML 34)")
	}
}

func TestJobFinishedCleansUp(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, btCurve())
	h.finish(1)
	if h.p.StateOf(1) != NoRef {
		t.Fatal("finished job state retained")
	}
	if len(h.p.Plan(h.view)) != 0 {
		t.Fatal("plan contains finished job")
	}
}

func TestSetParamsRuntime(t *testing.T) {
	p := MustNew(DefaultParams())
	np := DefaultParams()
	np.TargetEff = 0.5
	if err := p.SetParams(np); err != nil {
		t.Fatal(err)
	}
	if p.Params().TargetEff != 0.5 {
		t.Fatal("params not applied")
	}
	np.Step = 0
	if err := p.SetParams(np); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestStaleReportForUnknownJobIgnored(t *testing.T) {
	p := MustNew(DefaultParams())
	jv := &sched.JobView{ID: 5, Request: 30, Allocated: 10}
	p.ReportPerformance(0, jv, sched.Report{Procs: 10, Speedup: 8, Efficiency: 0.8})
	// Must not panic or create state.
	if p.StateOf(5) != NoRef {
		t.Fatal("state created for unknown job")
	}
}

// TestConvergenceMatchesAnalyticTarget cross-checks the state machine's
// settled allocation against the analytic efficiency frontier for all four
// application classes on a dedicated machine.
func TestConvergenceMatchesAnalyticTarget(t *testing.T) {
	for _, c := range app.AllClasses() {
		prof := app.ProfileFor(c)
		h := newHarness(t, DefaultParams(), 60)
		h.start(1, prof.Request, prof.Speedup)
		h.settle(1, 40)
		got := h.jobs[1].Allocated
		// The frontier: largest p with eff >= target, capped by request.
		frontier := app.MaxProcsAtEfficiency(prof.Speedup, 0.7, prof.Request)
		// The search moves in steps of 4 and stops on relative-speedup
		// collapse, so allow a generous band around the frontier.
		lo, hi := frontier-6, frontier+4
		if c == app.Swim {
			// Superlinear: efficiency never dips below target, the
			// relative-speedup test is what stops it; see
			// TestRelativeSpeedupStopsSwim.
			continue
		}
		if got < lo || got > hi {
			t.Errorf("%s settled at %d, frontier %d", prof.Name, got, frontier)
		}
	}
}

func TestTransitionHistory(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	h.p.RecordHistory(true)
	h.start(1, 30, hydroCurve())
	h.settle(1, 30)
	hist := h.p.History()
	if len(hist) == 0 {
		t.Fatal("no transitions recorded")
	}
	// The hydro descent: first transition out of NO_REF must be a DEC with
	// a sub-target efficiency.
	first := hist[0]
	if first.From != NoRef || first.To != Dec {
		t.Fatalf("first transition %v -> %v, want NO_REF -> DEC", first.From, first.To)
	}
	if first.Efficiency >= 0.7 {
		t.Fatalf("triggering efficiency %v, want < target", first.Efficiency)
	}
	// The last transition must settle into STABLE.
	last := hist[len(hist)-1]
	if last.To != Stable {
		t.Fatalf("last transition to %v, want STABLE", last.To)
	}
	// Desired allocations must walk downward monotonically during descent.
	for i := 1; i < len(hist); i++ {
		if hist[i].Desired > hist[i-1].Desired {
			t.Fatalf("descent reversed at %d: %v", i, hist)
		}
	}
}

func TestHistoryDisabledByDefault(t *testing.T) {
	h := newHarness(t, DefaultParams(), 60)
	h.start(1, 30, hydroCurve())
	h.settle(1, 30)
	if h.p.History() != nil {
		t.Fatal("history recorded without opt-in")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	base := DefaultParams()
	cases := []struct {
		min, max float64
		qh       int
	}{
		{0, 0.9, 10},
		{0.9, 0.5, 10},
		{0.5, 2.0, 10},
		{0.5, 0.9, 0},
	}
	for i, c := range cases {
		if _, err := NewAdaptive(base, c.min, c.max, c.qh); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	a := MustNewAdaptive(base, 0.5, 0.9, 10)
	if a.Name() != "PDPA-adaptive" {
		t.Fatal("name")
	}
}

func TestAdaptiveTargetTracksQueue(t *testing.T) {
	a := MustNewAdaptive(DefaultParams(), 0.5, 0.9, 10)
	// Empty queue: relax to the minimum.
	a.Plan(sched.View{NCPU: 60, Queued: 0})
	if got := a.Params().TargetEff; got != 0.5 {
		t.Fatalf("empty-queue target = %v, want 0.5", got)
	}
	// Deep queue: tighten to the maximum.
	a.Plan(sched.View{NCPU: 60, Queued: 20})
	if got := a.Params().TargetEff; got != 0.9 {
		t.Fatalf("deep-queue target = %v, want 0.9", got)
	}
	if a.Params().HighEff < 0.9 {
		t.Fatalf("high_eff %v fell below the target", a.Params().HighEff)
	}
	// Mid queue: interpolated.
	a.Plan(sched.View{NCPU: 60, Queued: 5})
	if got := a.Params().TargetEff; got < 0.65 || got > 0.75 {
		t.Fatalf("mid-queue target = %v, want ~0.7", got)
	}
}

func TestAdaptiveHysteresis(t *testing.T) {
	a := MustNewAdaptive(DefaultParams(), 0.5, 0.9, 100)
	a.Plan(sched.View{NCPU: 60, Queued: 50}) // target 0.7
	before := a.Params().TargetEff
	// A one-job wiggle (0.4% of range) must not change the parameters (and
	// so must not reopen every STABLE application's search).
	a.Plan(sched.View{NCPU: 60, Queued: 51})
	if a.Params().TargetEff != before {
		t.Fatalf("target moved on a tiny queue change: %v -> %v", before, a.Params().TargetEff)
	}
}

func TestAdaptiveAllocatesByLoad(t *testing.T) {
	// Same hydro2d application: generous allocation when the queue is
	// empty, tight when it is deep.
	run := func(queued int) int {
		h := newHarness(t, DefaultParams(), 60)
		h.p = nil // replaced by the adaptive policy below
		a := MustNewAdaptive(DefaultParams(), 0.5, 0.9, 10)
		jv := &sched.JobView{ID: 1, Name: "hydro", Request: 30}
		a.JobStarted(0, jv)
		view := sched.View{NCPU: 60, Jobs: []*sched.JobView{jv}, Queued: queued}
		apply := func() {
			plan := a.Plan(view)
			want := plan[0]
			if want > 60 {
				want = 60
			}
			jv.Allocated = want
		}
		apply()
		curve := hydroCurve()
		for i := 0; i < 30; i++ {
			s := curve.Speedup(jv.Allocated)
			r := sched.Report{Procs: jv.Allocated, Speedup: s, Efficiency: s / float64(jv.Allocated)}
			jv.Reports = append(jv.Reports, r)
			a.ReportPerformance(0, jv, r)
			apply()
		}
		return jv.Allocated
	}
	generous := run(0) // target 0.5
	tight := run(20)   // target 0.9
	if generous <= tight {
		t.Fatalf("empty-queue allocation %d not above deep-queue %d", generous, tight)
	}
}
