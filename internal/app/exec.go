package app

import (
	"fmt"
	"math"

	"pdpasim/internal/sim"
)

// progressTolerance absorbs the fixed-point rounding of iteration-end event
// times: completion events are scheduled at the ceiling of the remaining
// wall time, so progress can overshoot the iteration boundary by at most
// rate × 1µs (rates are bounded by the machine size).
const progressTolerance = 100 * sim.Microsecond

// Execution tracks the runtime progress of one application instance through
// its iterative structure. Progress is integrated piecewise: between
// scheduling events the application advances through its serial work at a
// constant rate (its current effective speedup). Reallocation penalties are
// modeled as wall-clock dead time consumed before useful progress resumes.
//
// Execution is driven by the system clock: every state change first calls
// Advance to integrate progress up to "now" at the old rate.
type Execution struct {
	prof *Profile

	iterationsDone int
	iterWork       sim.Time // serial work per iteration, incl. instrumentation
	progress       sim.Time // serial work completed in the current iteration
	penalty        sim.Time // wall-clock dead time still to be served

	rate     float64 // current effective speedup (serial seconds per second)
	lastTime sim.Time

	iterStart     sim.Time // wall time the current iteration started
	iterDirty     bool     // the current iteration spanned a rate change
	iterStartRate float64

	// batch > 1 fuses that many iterations into one boundary event
	// (throughput mode). A hard rate change or penalty mid-batch collapses
	// the fusion so scheduling semantics never change — only how many engine
	// events an undisturbed stretch of iterations costs.
	batch int
}

// InitExecution initializes e in place, for callers that embed an
// Execution by value. Any previous state of e is discarded.
func InitExecution(e *Execution, prof *Profile, instrumented bool, start sim.Time) {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	work := prof.SerialIterationTime
	if instrumented {
		work = sim.Time(float64(work) * (1 + prof.MeasurementOverhead))
	}
	*e = Execution{
		prof:      prof,
		iterWork:  work,
		lastTime:  start,
		iterStart: start,
	}
}

// Rate returns the current effective speedup.
func (e *Execution) Rate() float64 { return e.rate }

// IterationsDone returns how many iterations have completed.
func (e *Execution) IterationsDone() int { return e.iterationsDone }

// Done reports whether every iteration has completed.
func (e *Execution) Done() bool { return e.iterationsDone >= e.prof.Iterations }

// curWork returns the serial work of the current boundary span: one
// iteration normally, batch iterations while a fusion is active.
func (e *Execution) curWork() sim.Time {
	if e.batch > 1 {
		return e.iterWork * sim.Time(e.batch)
	}
	return e.iterWork
}

// AtIterationStart reports whether the execution sits exactly at an
// iteration boundary with no pending penalty and no dirty measurement — the
// only state where StartBatch is legal.
func (e *Execution) AtIterationStart() bool {
	return e.progress == 0 && e.penalty == 0 && !e.iterDirty && e.batch <= 1
}

// StartBatch fuses the next n iterations into a single boundary event. Legal
// only at a clean iteration start, with n iterations actually remaining.
// While fused, the span completes as one CompleteIteration whose sample
// reports the per-iteration average wall time; a hard rate change or penalty
// mid-span collapses the fusion (crediting whole iterations already passed)
// so allocation changes behave exactly as without batching.
func (e *Execution) StartBatch(n int) {
	if n <= 1 || e.batch > 1 {
		return
	}
	if e.progress != 0 || e.penalty != 0 || e.iterDirty {
		panic(fmt.Sprintf("app %s: StartBatch mid-iteration", e.prof.Name))
	}
	if e.iterationsDone+n > e.prof.Iterations {
		panic(fmt.Sprintf("app %s: StartBatch(%d) past the last iteration", e.prof.Name, n))
	}
	e.batch = n
}

// collapseBatch ends an active fusion early: whole iterations already worked
// through are credited to iterationsDone (their samples are dropped — the
// sampling throughput mode documents), and the in-progress iteration
// continues as a normal single iteration. The current (possibly boundary-
// complete) iteration is always left pending so the armed completion event
// stays valid.
func (e *Execution) collapseBatch() {
	if e.batch <= 1 {
		return
	}
	completed := int(e.progress / e.iterWork)
	if completed > e.batch-1 {
		completed = e.batch - 1
	}
	e.iterationsDone += completed
	e.progress -= e.iterWork * sim.Time(completed)
	e.batch = 0
}

// Advance integrates progress up to time t at the current rate. It must be
// called with non-decreasing times. Advancing past the end of the current
// iteration panics: the caller must complete iterations at their boundary
// events (the event scheduled from NextIterationEnd).
func (e *Execution) Advance(t sim.Time) {
	if t < e.lastTime {
		panic(fmt.Sprintf("app: Advance time went backwards: %v < %v", t, e.lastTime))
	}
	dt := t - e.lastTime
	e.lastTime = t
	if dt == 0 || e.Done() {
		return
	}
	if e.penalty > 0 {
		if dt <= e.penalty {
			e.penalty -= dt
			return
		}
		dt -= e.penalty
		e.penalty = 0
	}
	if e.rate <= 0 {
		return
	}
	gained := sim.Time(float64(dt) * e.rate)
	e.progress += gained
	if work := e.curWork(); e.progress > work+progressTolerance {
		panic(fmt.Sprintf("app %s: advanced %v past iteration end %v", e.prof.Name, e.progress, work))
	} else if e.progress > work {
		e.progress = work
	}
}

// SetRate changes the effective speedup at time t (advancing progress up to t
// first). If the current iteration has made progress at a different rate, it
// is marked dirty: the SelfAnalyzer discards its timing.
func (e *Execution) SetRate(t sim.Time, rate float64) {
	e.setRate(t, rate, false)
}

// SetRateSoft changes the rate without dirtying the current iteration's
// measurement. It models environmental drift the monitoring stack cannot
// observe — memory-locality changes on the CC-NUMA machine — whose effect
// legitimately lands in measured iteration times as noise. Reallocation
// rate changes must use SetRate: the runtime knows about those.
func (e *Execution) SetRateSoft(t sim.Time, rate float64) {
	e.setRate(t, rate, true)
}

func (e *Execution) setRate(t sim.Time, rate float64, soft bool) {
	if rate < 0 {
		rate = 0
	}
	e.Advance(t)
	if !soft && rate != e.rate {
		e.collapseBatch()
		if e.progress > 0 {
			e.iterDirty = true
		}
	}
	e.rate = rate
	if e.progress == 0 {
		e.iterStartRate = rate
		e.iterStart = t // idle wait before the iteration begins is not timed
	}
}

// AddPenalty adds wall-clock dead time (a reallocation penalty) at time t.
// The penalty dirties the current iteration's measurement — even at an
// iteration boundary, since the dead time lands inside the iteration's wall
// clock and would otherwise bias every measured speedup low.
func (e *Execution) AddPenalty(t, penalty sim.Time) {
	if penalty <= 0 {
		return
	}
	e.Advance(t)
	e.collapseBatch()
	e.penalty += penalty
	e.iterDirty = true
}

// NextIterationEnd returns the wall time at which the current iteration will
// complete if the rate stays constant, or sim.Forever if the application is
// stopped or already done.
func (e *Execution) NextIterationEnd() sim.Time {
	if e.Done() {
		return sim.Forever
	}
	remaining := e.curWork() - e.progress
	if e.rate <= 0 {
		return sim.Forever
	}
	return e.lastTime + e.penalty + sim.Time(math.Ceil(float64(remaining)/e.rate))
}

// IterationSample is the timing of one completed iteration, the raw material
// of the SelfAnalyzer.
type IterationSample struct {
	Index    int
	WallTime sim.Time
	// Rate the iteration ran at (meaningful only when Clean).
	Rate float64
	// Clean reports that the whole iteration ran at one rate with no
	// penalties, so its wall time is a valid performance measurement.
	Clean bool
}

// CompleteIteration finishes the current iteration at time t. It panics if
// the iteration has not actually reached its end (callers must only invoke
// it from the event scheduled at NextIterationEnd, and must reschedule that
// event whenever the rate changes).
func (e *Execution) CompleteIteration(t sim.Time) IterationSample {
	e.Advance(t)
	if e.Done() {
		panic("app: CompleteIteration after done")
	}
	work := e.curWork()
	if work-e.progress > progressTolerance || e.penalty > 0 {
		panic(fmt.Sprintf("app %s: iteration %d not finished (progress %v/%v, penalty %v)",
			e.prof.Name, e.iterationsDone, e.progress, work, e.penalty))
	}
	n := 1
	if e.batch > 1 {
		n = e.batch
	}
	s := IterationSample{
		Index:    e.iterationsDone + n - 1,
		WallTime: (t - e.iterStart) / sim.Time(n),
		Rate:     e.iterStartRate,
		Clean:    !e.iterDirty,
	}
	e.iterationsDone += n
	e.batch = 0
	e.progress = 0
	e.iterStart = t
	e.iterDirty = false
	e.iterStartRate = e.rate
	return s
}
