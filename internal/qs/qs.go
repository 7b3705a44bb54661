// Package qs implements the NANOS Queuing System (Section 3.2): the
// user-level submission tool that replays a workload trace, holds arriving
// jobs in a FIFO queue, and starts them subject to the multiprogramming
// level — either a fixed level (the traditional regime IRIX, Equipartition,
// and Equal_efficiency run under) or the resource manager's coordinated
// admission decision (PDPA).
//
// The queuing system selects *which* job to start — always the oldest
// waiting one: FIFO is the NANOS QS's only discipline — and the processor
// scheduling policy decides *when* a new job may start, the split of
// responsibilities Section 4.3 proposes.
package qs

import (
	"pdpasim/internal/obs"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
	"pdpasim/internal/workload"
)

// QueuingSystem replays job submissions and controls job starts.
type QueuingSystem struct {
	eng *sim.Engine
	// fixedMPL caps concurrently running jobs; 0 means no fixed cap (the
	// resource manager's admission alone decides).
	fixedMPL int
	canAdmit func() bool
	start    func(job workload.Job)
	rec      *trace.Recorder
	tr       *obs.Trace

	// queue is a head-indexed FIFO: Enqueue appends, TryStart advances head,
	// and the backing array is reused once drained — reslicing the front off
	// instead would defeat append's amortization and reallocate steadily.
	queue   []workload.Job
	head    int
	running int
	maxMPL  int

	inTryStart bool

	// subJobs/subCursor/subEvents are the SubmitAll batch state: an arrival-
	// event slab plus the cursor the shared arrival handler advances. Held on
	// the QueuingSystem (not a per-call struct) so Init-style reuse recycles
	// the slab across runs. subFn is the shared handler, bound once.
	subJobs   []workload.Job
	subCursor int
	subEvents []sim.Event
	subFn     func()
}

// New returns a queuing system. canAdmit is the resource manager's admission
// check (may be nil, meaning always allowed); start launches a job.
func New(eng *sim.Engine, fixedMPL int, canAdmit func() bool, start func(job workload.Job), rec *trace.Recorder) *QueuingSystem {
	if start == nil {
		panic("qs: nil start function")
	}
	if fixedMPL < 0 {
		fixedMPL = 0
	}
	return &QueuingSystem{
		eng:      eng,
		fixedMPL: fixedMPL,
		canAdmit: canAdmit,
		start:    start,
		rec:      rec,
	}
}

// Init reinitializes q in place — the variant of New for drivers that reuse
// one QueuingSystem across runs. The queue and the arrival-event slab keep
// their backing arrays; any installed trace is detached (re-apply SetTrace
// after Init). The previous run must have drained (or its engine been
// Reset) so no slab event is still pending.
func Init(q *QueuingSystem, eng *sim.Engine, fixedMPL int, canAdmit func() bool, start func(job workload.Job), rec *trace.Recorder) {
	if start == nil {
		panic("qs: nil start function")
	}
	if fixedMPL < 0 {
		fixedMPL = 0
	}
	q.eng = eng
	q.fixedMPL = fixedMPL
	q.canAdmit = canAdmit
	q.start = start
	q.rec = rec
	q.tr = nil
	q.queue = q.queue[:0]
	q.head = 0
	q.running = 0
	q.maxMPL = 0
	q.inTryStart = false
	q.subJobs = nil
	q.subCursor = 0
}

// SubmitAll schedules the arrival of every job in the workload.
//
// Generated workloads list jobs in submission order; then the arrival events
// pop jobs from a shared cursor (arrivals fire in (time, scheduling-order)
// order, which equals list order), so the whole batch costs one event slab
// and one closure rather than one of each per job. An unsorted job list
// falls back to per-job closures.
func (q *QueuingSystem) SubmitAll(w *workload.Workload) {
	jobs := w.Jobs
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit < jobs[i-1].Submit {
			for _, job := range jobs {
				job := job
				q.eng.At(job.Submit, "qs/arrival", func() { q.Enqueue(job) })
			}
			return
		}
	}
	q.subJobs = jobs
	q.subCursor = 0
	if cap(q.subEvents) < len(jobs) {
		q.subEvents = make([]sim.Event, len(jobs))
	} else {
		q.subEvents = q.subEvents[:len(jobs)]
		clear(q.subEvents)
	}
	if q.subFn == nil {
		q.subFn = q.subNext
	}
	for i := range jobs {
		q.eng.ScheduleInto(&q.subEvents[i], jobs[i].Submit, "qs/arrival", q.subFn)
	}
}

// subNext is the shared arrival handler of the SubmitAll batch: arrivals fire
// in list order, so one cursor replaces one captured job per event.
func (q *QueuingSystem) subNext() {
	job := q.subJobs[q.subCursor]
	q.subCursor++
	q.Enqueue(job)
}

// SetTrace attaches a decision-trace recorder (nil detaches): job arrivals
// and starts are recorded, plus fixed-MPL admission decisions when a fixed
// multiprogramming level governs (under coordinated admission the policy
// records its own decisions with richer reasons).
func (q *QueuingSystem) SetTrace(tr *obs.Trace) { q.tr = tr }

// Enqueue adds one job to the queue (at its submission time) and attempts to
// start jobs.
func (q *QueuingSystem) Enqueue(job workload.Job) {
	if q.head > 0 && q.head == len(q.queue) {
		q.queue = q.queue[:0]
		q.head = 0
	}
	q.queue = append(q.queue, job)
	if q.tr != nil {
		q.tr.Record(obs.Event{
			At: q.eng.Now(), Kind: obs.KindJobArrive,
			Job: int32(job.ID), Procs: int32(job.Request),
		})
	}
	q.TryStart()
}

// JobCompleted informs the queuing system that a running job finished.
func (q *QueuingSystem) JobCompleted() {
	q.running--
	q.observeMPL()
	q.TryStart()
}

// TryStart launches queued jobs while the multiprogramming level and the
// resource manager's admission allow. It is safe to call reentrantly (a
// started job's manager callback may poke it again).
func (q *QueuingSystem) TryStart() {
	if q.inTryStart {
		return
	}
	q.inTryStart = true
	defer func() { q.inTryStart = false }()
	for q.head < len(q.queue) {
		if q.fixedMPL > 0 && q.running >= q.fixedMPL {
			if q.tr != nil {
				q.tr.Record(obs.Event{
					At: q.eng.Now(), Kind: obs.KindDeny,
					Reason: obs.ReasonFixedMPLFull, Job: -1, Procs: int32(q.running),
				})
			}
			break
		}
		if q.canAdmit != nil && !q.canAdmit() {
			// Coordinated admission: the policy's WantsNewJob records the
			// denial and its reason itself.
			break
		}
		job := q.queue[q.head]
		q.head++
		q.running++
		if q.tr != nil {
			if q.fixedMPL > 0 {
				q.tr.Record(obs.Event{
					At: q.eng.Now(), Kind: obs.KindAdmit,
					Reason: obs.ReasonBelowFixedMPL, Job: int32(job.ID), Procs: int32(q.running - 1),
				})
			}
			q.tr.Record(obs.Event{
				At: q.eng.Now(), Kind: obs.KindJobStart,
				Job: int32(job.ID), Procs: int32(job.Request),
			})
		}
		q.observeMPL()
		q.start(job)
	}
}

func (q *QueuingSystem) observeMPL() {
	if q.running > q.maxMPL {
		q.maxMPL = q.running
	}
	if q.rec != nil {
		q.rec.ObserveMPL(q.eng.Now(), q.running)
	}
}

// Running returns the number of running jobs.
func (q *QueuingSystem) Running() int { return q.running }

// Queued returns the number of jobs waiting.
func (q *QueuingSystem) Queued() int { return len(q.queue) - q.head }

// MaxMPL returns the highest multiprogramming level reached.
func (q *QueuingSystem) MaxMPL() int { return q.maxMPL }

// Drained reports whether every submitted job has been started and finished.
func (q *QueuingSystem) Drained() bool { return q.Queued() == 0 && q.running == 0 }
