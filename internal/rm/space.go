package rm

import (
	"slices"

	"pdpasim/internal/machine"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/obs"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

type managedJob struct {
	view *sched.JobView
	rt   *nthlib.Runtime
}

func (j *managedJob) jobID() sched.JobID { return j.view.ID }

// SpaceManager enforces a dynamic space-sharing policy: each running job
// owns a disjoint CPU partition, resized whenever the policy replans (job
// arrival, job completion, or a performance report — the activations
// Section 4.1 lists).
type SpaceManager struct {
	eng  *sim.Engine
	mach *machine.Machine
	pol  sched.Policy
	rec  *trace.Recorder

	// jobs is the running set sorted by ascending id, so it lines up with
	// the policy's View.Jobs and plan without any lookup by id.
	jobs             []*managedJob
	admissionChanged func()
	queued           func() int
	replanning       bool
	replanPending    bool
	tr               *obs.Trace

	// Snapshot scratch buffers, reused across calls because snapshot runs on
	// every replan and admission check. Two buffers, not one: an admission
	// check (CanAdmit) can fire while replanOnce is still iterating its own
	// snapshot, and must not clobber it. Policies never retain View.Jobs
	// past the call.
	admitScratch []*sched.JobView
	planScratch  []*sched.JobView

	// Free lists recycling per-job state across jobs and runs. Safe because
	// nothing retains a job's view (or its Reports) past JobFinished: policies
	// see views only during calls and the run result is assembled from the
	// job tracks. reportsPool keeps grown Reports backing arrays — the
	// dominant steady-state allocation site of a PDPA run.
	viewFree    []*sched.JobView
	jobFree     []*managedJob
	reportsPool [][]sched.Report
}

// SetQueuedFunc wires the queuing system's queue-depth accessor into the
// views handed to the policy (load-adaptive policies read it).
func (m *SpaceManager) SetQueuedFunc(fn func() int) { m.queued = fn }

// SetTrace attaches a decision-trace recorder (nil detaches): performance
// reports and machine reallocations are recorded.
func (m *SpaceManager) SetTrace(tr *obs.Trace) { m.tr = tr }

// NewSpaceManager returns a manager driving pol over mach. rec may be nil.
func NewSpaceManager(eng *sim.Engine, mach *machine.Machine, pol sched.Policy, rec *trace.Recorder) *SpaceManager {
	m := new(SpaceManager)
	m.Reset(eng, mach, pol, rec)
	return m
}

// Name implements Manager.
func (m *SpaceManager) Name() string { return m.pol.Name() }

// Policy returns the policy being driven.
func (m *SpaceManager) Policy() sched.Policy { return m.pol }

// Running implements Manager.
func (m *SpaceManager) Running() int { return len(m.jobs) }

// SetAdmissionChanged implements Manager.
func (m *SpaceManager) SetAdmissionChanged(fn func()) { m.admissionChanged = fn }

// StartJob implements Manager.
func (m *SpaceManager) StartJob(id sched.JobID, rt *nthlib.Runtime) {
	var view *sched.JobView
	if n := len(m.viewFree); n > 0 {
		view = m.viewFree[n-1]
		m.viewFree = m.viewFree[:n-1]
	} else {
		view = new(sched.JobView)
	}
	var reports []sched.Report
	if n := len(m.reportsPool); n > 0 {
		reports = m.reportsPool[n-1]
		m.reportsPool = m.reportsPool[:n-1]
	}
	*view = sched.JobView{
		ID:      id,
		Name:    rt.Profile().Name,
		Request: rt.Request(),
		Gran:    rt.Granularity(),
		Arrived: m.eng.Now(),
		Reports: reports,
	}
	var j *managedJob
	if n := len(m.jobFree); n > 0 {
		j = m.jobFree[n-1]
		m.jobFree = m.jobFree[:n-1]
	} else {
		j = new(managedJob)
	}
	*j = managedJob{view: view, rt: rt}
	m.jobs = insertByID(m.jobs, j)
	m.pol.JobStarted(m.eng.Now(), view)
	m.replan()
}

// recycleJob returns a finished job's view, Reports backing array, and
// managedJob struct to the free lists.
func (m *SpaceManager) recycleJob(j *managedJob) {
	if r := j.view.Reports; cap(r) > 0 {
		m.reportsPool = append(m.reportsPool, r[:0])
	}
	*j.view = sched.JobView{}
	m.viewFree = append(m.viewFree, j.view)
	*j = managedJob{}
	m.jobFree = append(m.jobFree, j)
}

// ReportPerformance implements Manager.
func (m *SpaceManager) ReportPerformance(id sched.JobID, meas selfanalyzer.Measurement) {
	i := indexByID(m.jobs, id)
	if i < 0 {
		return
	}
	j := m.jobs[i]
	r := sched.Report{
		At:         m.eng.Now(),
		Procs:      meas.Procs,
		Speedup:    meas.Speedup,
		Efficiency: meas.Efficiency,
		IterTime:   meas.IterTime,
	}
	j.view.Reports = append(j.view.Reports, r)
	if m.tr != nil {
		m.tr.Record(obs.Event{
			At: r.At, Kind: obs.KindReport, Job: int32(id),
			Procs: int32(r.Procs), Eff: r.Efficiency, Speedup: r.Speedup,
		})
	}
	m.pol.ReportPerformance(m.eng.Now(), j.view, r)
	m.replan()
}

// JobFinished implements Manager.
func (m *SpaceManager) JobFinished(id sched.JobID) {
	i := indexByID(m.jobs, id)
	if i < 0 {
		return
	}
	j := m.jobs[i]
	m.mach.Release(m.eng.Now(), int(id))
	m.pol.JobFinished(m.eng.Now(), id)
	m.jobs = slices.Delete(m.jobs, i, i+1)
	m.recycleJob(j)
	m.replan()
}

// Reset initializes the manager to drive pol over mach with no job running
// and no queued-func, admission hook or trace attached; rec may be nil. It is
// the manager's only initializer: NewSpaceManager calls it on a zero value,
// and a reused manager keeps its free lists and scratch buffers. The engine,
// machine and policy are not reset here; callers reset those themselves.
func (m *SpaceManager) Reset(eng *sim.Engine, mach *machine.Machine, pol sched.Policy, rec *trace.Recorder) {
	for _, j := range m.jobs {
		m.recycleJob(j)
	}
	clear(m.jobs)
	m.jobs = m.jobs[:0]
	m.eng = eng
	m.mach = mach
	m.pol = pol
	m.rec = rec
	m.admissionChanged = nil
	m.queued = nil
	m.replanning = false
	m.replanPending = false
	m.tr = nil
}

// CanAdmit implements Manager.
func (m *SpaceManager) CanAdmit() bool {
	return m.pol.WantsNewJob(m.snapshot(&m.admitScratch))
}

func (m *SpaceManager) snapshot(scratch *[]*sched.JobView) sched.View {
	jobs := (*scratch)[:0]
	for _, j := range m.jobs {
		jobs = append(jobs, j.view)
	}
	v := sched.View{
		Now:  m.eng.Now(),
		NCPU: m.mach.NCPU(),
		Jobs: jobs,
	}
	if m.queued != nil {
		v.Queued = m.queued()
	}
	*scratch = v.Jobs
	return v
}

// replan asks the policy for the desired allocation and applies it to the
// machine: shrinks first (freeing processors), then grows (clamped by what
// is free), and finally the run-to-completion guarantee — every running job
// keeps at least one processor, preempted from the largest partition if the
// machine is full.
func (m *SpaceManager) replan() {
	if m.replanning {
		// A policy callback triggered a nested replan (e.g. admission
		// started a job while applying allocations); fold it into one more
		// pass instead of recursing.
		m.replanPending = true
		return
	}
	m.replanning = true
	for {
		m.replanPending = false
		m.replanOnce()
		if !m.replanPending {
			break
		}
	}
	m.replanning = false
	if m.admissionChanged != nil {
		m.admissionChanged()
	}
}

func (m *SpaceManager) replanOnce() {
	if len(m.jobs) == 0 {
		return
	}
	now := m.eng.Now()
	// plan[i] is the policy's want for m.jobs[i]: the snapshot lists the
	// views in the running set's order, and nothing below adds or removes
	// a job.
	plan := m.pol.Plan(m.snapshot(&m.planScratch))

	// Shrinks release processors before any growth claims them.
	for i, j := range m.jobs {
		if want := m.roundToGranularity(j, plan[i]); want < j.view.Allocated {
			m.apply(now, j, want)
		}
	}
	for i, j := range m.jobs {
		if want := m.roundToGranularity(j, plan[i]); want > j.view.Allocated {
			m.applyGrow(now, j, want)
		}
	}

	// Backfill: a granular (MPI) job that could not start because its fair
	// share is less than one whole multiple of its process count takes what
	// actually fits from the free processors — otherwise rigid jobs starve
	// forever on a machine whose policy plans in smaller units. (A policy
	// that plans below a rigid job's request can never run it; the paper's
	// Section 4.3 calls this the fragmentation cost of rigidity.)
	for _, j := range m.jobs {
		g := j.rt.Granularity()
		if g <= 1 || j.view.Allocated >= g {
			continue
		}
		fit := m.mach.FreeCPUs() / g * g
		if fit > j.view.Request {
			fit = j.view.Request
		}
		if fit >= g {
			m.apply(now, j, fit)
		}
	}

	// Run-to-completion: a malleable job starved to zero takes one
	// processor from the largest partition. Granular (MPI) jobs instead
	// wait for a whole multiple of their process count — the fragmentation
	// cost of rigidity (Section 4.3).
	for i, starving := range m.jobs {
		if starving.rt.Granularity() > 1 {
			continue
		}
		for starving.view.Allocated < 1 {
			victim := m.largestPartition(i)
			if victim == nil || victim.view.Allocated <= 1 {
				break
			}
			m.apply(now, victim, victim.view.Allocated-1)
			m.apply(now, starving, 1)
		}
	}
}

// roundToGranularity clamps a planned allocation to what the job can
// actually use: non-negative, capped at the request, and a whole multiple of
// the job's granularity. A running granular job is never shrunk below one
// processor per process.
func (m *SpaceManager) roundToGranularity(j *managedJob, want int) int {
	if want < 0 {
		want = 0
	}
	if want > j.view.Request {
		want = j.view.Request
	}
	g := j.rt.Granularity()
	if g <= 1 {
		return want
	}
	want = want / g * g
	if want < g && j.view.Allocated >= g {
		want = g
	}
	return want
}

// applyGrow grows a partition, all-or-nothing in granularity units: the
// grant is pre-clamped to the free processors so a rigid job never receives
// a fraction of a process.
func (m *SpaceManager) applyGrow(now sim.Time, j *managedJob, want int) {
	g := j.rt.Granularity()
	if g > 1 {
		available := j.view.Allocated + m.mach.FreeCPUs()
		if want > available {
			want = available / g * g
		}
		if want <= j.view.Allocated {
			return
		}
	}
	m.apply(now, j, want)
}

// largestPartition returns the running job with the most processors other
// than m.jobs[excluding], the lowest id among equals, or nil.
func (m *SpaceManager) largestPartition(excluding int) *managedJob {
	var best *managedJob
	for i, j := range m.jobs {
		if i != excluding && (best == nil || j.view.Allocated > best.view.Allocated) {
			best = j
		}
	}
	return best
}

func (m *SpaceManager) apply(now sim.Time, j *managedJob, want int) {
	granted := m.mach.Resize(now, int(j.view.ID), want)
	if granted == j.view.Allocated {
		return
	}
	if m.tr != nil {
		m.tr.Record(obs.Event{
			At: now, Kind: obs.KindRealloc, Job: int32(j.view.ID),
			From: int32(j.view.Allocated), To: int32(granted), Want: int32(want),
		})
	}
	j.view.Allocated = granted
	j.rt.SetAllocation(granted)
	if m.rec != nil {
		m.rec.ObserveAllocation(now, int(j.view.ID), granted)
	}
}
