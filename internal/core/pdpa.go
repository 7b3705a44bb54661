// Package core implements the paper's contribution: the Performance-Driven
// Processor Allocation policy (PDPA, Section 4).
//
// PDPA is a dynamic space-sharing policy that searches, per application, for
// the maximum processor allocation that still achieves a target efficiency,
// using speedups measured at runtime. Each application moves through the
// state machine of Fig. 2 — NO_REF, INC, DEC, STABLE — as its measured
// efficiency is compared against the target_eff and high_eff thresholds.
// PDPA also decides the multiprogramming level: coordinated with the queuing
// system, it admits a new application when free processors exist and the
// running applications' allocations have settled.
package core

import (
	"fmt"
	"slices"

	"pdpasim/internal/obs"
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
)

// State is a PDPA application state (Fig. 2).
type State int

const (
	// NoRef: PDPA has no performance knowledge about the application yet.
	NoRef State = iota
	// Inc: the application performed well at the last evaluation and was
	// granted additional processors.
	Inc
	// Dec: the application missed the target efficiency and is shrinking.
	Dec
	// Stable: the application holds the maximum allocation PDPA considers
	// acceptable.
	Stable
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case NoRef:
		return "NO_REF"
	case Inc:
		return "INC"
	case Dec:
		return "DEC"
	case Stable:
		return "STABLE"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Params are the PDPA policy parameters (Section 4.2). They may be changed
// between runs; the paper notes they can also be modified at runtime.
type Params struct {
	// TargetEff is the efficiency PDPA guarantees for allocated processors
	// (the paper's evaluation uses 0.7).
	TargetEff float64
	// HighEff is the efficiency considered very good (0.9 in the paper).
	HighEff float64
	// Step is the number of processors added or removed per transition.
	Step int
	// BaseMPL is the default multiprogramming level: below it, admission is
	// unconditional (the paper's default is 4).
	BaseMPL int
	// MaxStableTransitions bounds how many times an application may leave
	// STABLE again, avoiding ping-pong effects (Section 4.2.4). Zero means
	// no limit.
	MaxStableTransitions int
}

// stableHysteresis shrinks the target a STABLE application is re-checked
// against, so measurement noise at the efficiency frontier does not cause
// reallocation churn.
const stableHysteresis = 0.95

// DefaultParams returns the parameter values used throughout the paper's
// evaluation.
func DefaultParams() Params {
	return Params{
		TargetEff:            0.7,
		HighEff:              0.9,
		Step:                 4,
		BaseMPL:              4,
		MaxStableTransitions: 4,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.TargetEff <= 0 || p.TargetEff > 1.5:
		return fmt.Errorf("core: target_eff %v out of range", p.TargetEff)
	case p.HighEff < p.TargetEff:
		return fmt.Errorf("core: high_eff %v below target_eff %v", p.HighEff, p.TargetEff)
	case p.Step < 1:
		return fmt.Errorf("core: step %v < 1", p.Step)
	case p.BaseMPL < 1:
		return fmt.Errorf("core: base multiprogramming level %v < 1", p.BaseMPL)
	case p.MaxStableTransitions < 0:
		return fmt.Errorf("core: negative stable-transition limit")
	}
	return nil
}

// jobState is PDPA's memory about one application: its state and the recent
// past the search algorithm compares against (Section 4.1: "it remembers the
// last processor allocations different from the current one and the
// efficiency achieved with them").
type jobState struct {
	state State
	// desired is the allocation PDPA currently wants for the job (-1 until
	// the initial allocation is computed in Plan).
	desired int
	// prevProcs/prevSpeedup are the measurement taken at the previous,
	// different allocation (the reference for RelativeSpeedup).
	prevProcs   int
	prevSpeedup float64
	// stableLeaves counts transitions out of STABLE (ping-pong guard).
	stableLeaves int
	// searched records that the search algorithm has reached an upward
	// verdict for this application: either an INC growth test concluded
	// (the frontier was found — superlinear applications stay above
	// high_eff at their relative-speedup stop and must not re-climb), or
	// the application descended through DEC (larger allocations are known
	// to miss the target). An application that settled straight out of
	// NO_REF has never looked upward and is granted one probe.
	searched bool
	// epoch is the parameter epoch the job was last evaluated under; a
	// parameter change makes STABLE applications re-evaluate (Section
	// 4.2.4).
	epoch int
}

// Transition is one recorded step of the state machine — the raw material
// for debugging a policy decision after the fact.
type Transition struct {
	At   sim.Time
	Job  sched.JobID
	From State
	To   State
	// Procs is the allocation the triggering measurement was taken at;
	// Desired is the allocation decided by the transition.
	Procs   int
	Desired int
	// Efficiency is the measured efficiency that triggered the step.
	Efficiency float64
}

// PDPA implements sched.Policy. Create with New, or initialize in place
// with Reset.
type PDPA struct {
	params Params
	jobs   map[sched.JobID]*jobState
	epoch  int
	// history records transitions when enabled (see RecordHistory).
	history       []Transition
	recordHistory bool
	// plan is the slice returned by Plan, reused across calls; the manager
	// consumes it before the next replan.
	plan []int
	// tr, when non-nil, receives decision-trace events: every state
	// transition and every admission decision with its reason.
	tr *obs.Trace
	// free recycles jobState structs across jobs (and, via Reset, runs).
	free []*jobState
}

// SetTrace attaches a decision-trace recorder (nil detaches). Every state
// transition and every WantsNewJob admission decision is recorded.
func (p *PDPA) SetTrace(tr *obs.Trace) { p.tr = tr }

// RecordHistory enables transition recording; History returns the log.
func (p *PDPA) RecordHistory(on bool) { p.recordHistory = on }

// History returns the recorded transitions (nil unless RecordHistory(true)
// was called before the run).
func (p *PDPA) History() []Transition { return p.history }

// New returns a PDPA policy with the given parameters.
func New(params Params) (*PDPA, error) {
	p := new(PDPA)
	if err := p.Reset(params); err != nil {
		return nil, err
	}
	return p, nil
}

// MustNew is New that panics on error.
func MustNew(params Params) *PDPA {
	p, err := New(params)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sched.Policy.
func (p *PDPA) Name() string { return "PDPA" }

// Params returns the current parameters.
func (p *PDPA) Params() Params { return p.params }

// SetParams changes the policy parameters at runtime. STABLE applications
// will be re-evaluated against the new thresholds at their next report.
func (p *PDPA) SetParams(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	p.params = params
	p.epoch++
	return nil
}

// JobStarted implements sched.Policy: the application enters NO_REF.
func (p *PDPA) JobStarted(now sim.Time, job *sched.JobView) {
	var s *jobState
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		s = new(jobState)
	}
	*s = jobState{state: NoRef, desired: -1}
	p.jobs[job.ID] = s
}

// JobFinished implements sched.Policy.
func (p *PDPA) JobFinished(now sim.Time, id sched.JobID) {
	if s, ok := p.jobs[id]; ok {
		p.free = append(p.free, s)
		delete(p.jobs, id)
	}
}

// Reset initializes the policy with params and no running job, history
// recording off and no trace attached. It is the policy's only initializer:
// New calls it on a zero value, and a reused policy recycles its per-job
// state structs and the plan's storage.
func (p *PDPA) Reset(params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	for id, s := range p.jobs {
		p.free = append(p.free, s)
		delete(p.jobs, id)
	}
	if p.jobs == nil {
		p.jobs = make(map[sched.JobID]*jobState)
	}
	p.params = params
	p.epoch = 0
	p.history = nil
	p.recordHistory = false
	p.plan = p.plan[:0]
	p.tr = nil
	return nil
}

// ReportPerformance implements sched.Policy: it runs one step of the state
// machine of Fig. 2 for the reporting application.
func (p *PDPA) ReportPerformance(now sim.Time, job *sched.JobView, r sched.Report) {
	s, ok := p.jobs[job.ID]
	if !ok {
		return
	}
	procs := r.Procs
	eff := r.Efficiency
	speedup := r.Speedup

	prevState := s.state
	switch s.state {
	case NoRef:
		switch {
		case eff > p.params.HighEff:
			p.grow(s, job, procs)
		case eff < p.params.TargetEff:
			p.shrink(s, procs)
		default:
			s.state = Stable
			s.desired = procs
			s.searched = false
		}
		s.prevProcs = procs
		s.prevSpeedup = speedup

	case Inc:
		if procs <= s.prevProcs {
			if s.desired > procs {
				// The growth has not been granted yet (no free processors).
				// Stay in INC, still desiring the step: the manager grants
				// it as soon as processors free up, and only then is there
				// something to evaluate.
				break
			}
			// Nothing more to ask for (request cap): settle.
			s.state = Stable
			s.searched = true
			s.desired = procs
			break
		}
		// RelativeSpeedup: has scalability kept up with the additional
		// processors? (Section 4.2.2.)
		rel := 0.0
		if s.prevSpeedup > 0 {
			rel = speedup / s.prevSpeedup
		}
		required := float64(procs) / float64(s.prevProcs) * p.params.HighEff
		if eff > p.params.HighEff && speedup > s.prevSpeedup && rel > required {
			s.prevProcs = procs
			s.prevSpeedup = speedup
			p.grow(s, job, procs)
			break
		}
		// Good but no longer scaling: settle. The application loses the
		// step received in the last transition only if the current
		// efficiency misses the target.
		s.state = Stable
		s.searched = true
		if eff < p.params.TargetEff {
			s.desired = s.prevProcs
		} else {
			s.desired = procs
			s.prevProcs = procs
			s.prevSpeedup = speedup
		}

	case Dec:
		if eff < p.params.TargetEff && procs > 1 {
			s.prevProcs = procs
			s.prevSpeedup = speedup
			p.shrink(s, procs)
			break
		}
		s.state = Stable
		// The application descended from larger allocations that missed the
		// target: the upward verdict is in, no probe needed.
		s.searched = true
		s.desired = procs
		s.prevProcs = procs
		s.prevSpeedup = speedup

	case Stable:
		// STABLE holds the allocation; it is re-evaluated when the
		// application's performance changes or the policy parameters were
		// changed at runtime (Section 4.2.4). Leaving STABLE is rate
		// limited against ping-pong.
		if p.params.MaxStableTransitions > 0 && s.stableLeaves >= p.params.MaxStableTransitions {
			break
		}
		paramsChanged := s.epoch != p.epoch
		switch {
		// A genuine miss, with hysteresis: a measurement-noise dip just
		// below the target must not evict a settled application (the
		// robustness PDPA has over Equal_efficiency, Section 5.1).
		case eff < p.params.TargetEff*stableHysteresis:
			s.stableLeaves++
			s.prevProcs = procs
			s.prevSpeedup = speedup
			p.shrink(s, procs)
		// Acceptable performance with headroom and no upward verdict yet:
		// probe upward once (resuming the search); the probe's own INC
		// evaluation then delivers the verdict. A parameter change reopens
		// the search (Section 4.2.4).
		case eff >= p.params.TargetEff && procs < job.Request && (paramsChanged || !s.searched):
			s.stableLeaves++
			s.prevProcs = procs
			s.prevSpeedup = speedup
			p.grow(s, job, procs)
		}
	}
	s.epoch = p.epoch
	if s.state != prevState || s.desired != procs {
		if p.recordHistory {
			p.history = append(p.history, Transition{
				At: now, Job: job.ID, From: prevState, To: s.state,
				Procs: procs, Desired: s.desired, Efficiency: eff,
			})
		}
		if p.tr != nil {
			p.tr.Record(obs.Event{
				At: now, Kind: obs.KindPolicyState, Job: int32(job.ID),
				From: int32(prevState), To: int32(s.state),
				Procs: int32(procs), Want: int32(s.desired),
				Eff: eff, Speedup: speedup,
			})
		}
	}
}

// grow moves the job to INC, requesting step more processors (clamped to the
// request; the manager further clamps to the free processors). An
// application already at its request has nothing to gain and settles.
func (p *PDPA) grow(s *jobState, job *sched.JobView, procs int) {
	want := procs + p.params.Step
	if want > job.Request {
		want = job.Request
	}
	if want <= procs {
		s.state = Stable
		s.desired = procs
		return
	}
	s.state = Inc
	s.desired = want
}

// shrink moves the job to DEC, releasing step processors (minimum one:
// run-to-completion).
func (p *PDPA) shrink(s *jobState, procs int) {
	s.state = Dec
	want := procs - p.params.Step
	if want < 1 {
		want = 1
	}
	s.desired = want
}

// Plan implements sched.Policy. New applications receive the minimum of
// their request and the free processors (at least one); applications with
// performance knowledge receive their state machine's desired allocation.
// A job PDPA was never told about keeps its current allocation.
func (p *PDPA) Plan(v sched.View) []int {
	plan := slices.Grow(p.plan[:0], len(v.Jobs))[:len(v.Jobs)]
	p.plan = plan
	free := v.FreeCPUs()
	for i, job := range v.Jobs {
		s, ok := p.jobs[job.ID]
		if !ok {
			plan[i] = job.Allocated
			continue
		}
		// Initial allocation (Section 4.2.1): the minimum of the request
		// and the free processors. For a granular (MPI) job that has not
		// managed to start yet — the manager grants whole processes or
		// nothing — the initial decision is recomputed as processors free
		// up, so the job eventually fits.
		waitingGranular := job.Gran > 1 && job.Allocated < job.Gran && !job.HasPerformance()
		if s.desired < 0 || waitingGranular {
			want := job.Request
			if avail := job.Allocated + free; want > avail {
				want = avail
			}
			if want < 1 {
				want = 1
			}
			if want > s.desired {
				s.desired = want
			}
			free -= s.desired - job.Allocated
			if free < 0 {
				free = 0
			}
		}
		plan[i] = s.desired
	}
	return plan
}

// WantsNewJob implements sched.Policy: the multiprogramming-level policy of
// Section 4.3. Below the base level, admission is unconditional. Beyond it,
// a new application may start only when at least one processor is free and
// every running application's allocation has settled — it is STABLE, or it
// is shrinking (DEC: bad performance means it will not take more
// processors).
func (p *PDPA) WantsNewJob(v sched.View) bool {
	if len(v.Jobs) < p.params.BaseMPL {
		// Below the default multiprogramming level admission is
		// unconditional, like the fixed-level policies; the
		// run-to-completion minimum finds the new application a processor.
		p.recordAdmission(v, obs.KindAdmit, obs.ReasonBelowBaseMPL, -1)
		return true
	}
	if v.FreeCPUs() < 1 {
		// Beyond it, "...when free processors are available".
		p.recordAdmission(v, obs.KindDeny, obs.ReasonNoFreeCPUs, -1)
		return false
	}
	for _, job := range v.Jobs {
		s, ok := p.jobs[job.ID]
		if !ok {
			continue
		}
		if s.state == NoRef || s.state == Inc {
			p.recordAdmission(v, obs.KindDeny, obs.ReasonUnsettled, int32(job.ID))
			return false
		}
	}
	p.recordAdmission(v, obs.KindAdmit, obs.ReasonJobsSettled, -1)
	return true
}

// recordAdmission traces one WantsNewJob verdict; blocking names the
// unsettled job a denial is waiting on (-1 when not applicable).
func (p *PDPA) recordAdmission(v sched.View, kind obs.Kind, reason obs.Reason, blocking int32) {
	if p.tr == nil {
		return
	}
	p.tr.Record(obs.Event{
		At: v.Now, Kind: kind, Reason: reason, Job: blocking,
		Procs: int32(len(v.Jobs)),
	})
}
