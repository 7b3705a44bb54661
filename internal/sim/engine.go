package sim

import (
	"fmt"
)

// Handler is the body of a scheduled event. It runs at the event's time with
// the engine clock already advanced.
type Handler func()

// Event is a pending occurrence in the simulation. Events are ordered by
// time, with ties broken by scheduling order, so the execution order of
// simultaneous events is deterministic.
//
// The zero Event is a valid detached (not scheduled) event: owners may embed
// one by value and arm it with ScheduleInto without a separate allocation.
type Event struct {
	when Time
	seq  uint64
	// pos is the event's 1-based position in the engine's heap; 0 when the
	// event is not queued. One-based so the zero value means detached.
	pos     int
	name    string
	handler Handler
}

// before is the heap order: earliest time first, scheduling order breaking
// ties. (when, seq) is unique per scheduled event, so the pop order is a
// total order — independent of the heap's internal arrangement.
func (e *Event) before(o *Event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// interruptStride is how many events run between interrupt checks. Checking
// a context involves a mutex acquisition; amortizing it over a stride keeps
// the per-event cost well under a nanosecond (see BenchmarkEngineInterrupt)
// while still aborting a runaway simulation within microseconds of real time.
const interruptStride = 64

// Engine is the discrete-event simulation core: a clock and a pending-event
// queue. The zero value is not usable; call NewEngine.
//
// The queue is a hand-rolled binary heap rather than container/heap: the
// sift loops run on every Reschedule/pop of the simulation's inner loop, and
// inlining the (when, seq) comparison avoids the interface dispatch the
// generic heap pays per element move.
type Engine struct {
	now   Time
	queue []*Event
	seq   uint64
	// Executed counts events run so far (for diagnostics and tests).
	Executed uint64

	interrupt    func() error
	untilCheck   int
	interruptErr error
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its freshly constructed state while keeping the
// heap's backing array, so a reused engine schedules its first events without
// regrowing the queue. Any still-pending events are detached; the clock,
// sequence counter, and Executed counter restart at zero, making the event
// order of a subsequent run identical to one on a brand-new engine.
func (e *Engine) Reset() {
	for i, ev := range e.queue {
		if ev != nil {
			ev.pos = 0
		}
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.Executed = 0
	e.interrupt = nil
	e.untilCheck = 0
	e.interruptErr = nil
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// siftUp moves the event at heap position i (0-based) toward the root until
// the heap order holds.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].pos = i + 1
		i = parent
	}
	q[i] = ev
	ev.pos = i + 1
}

// siftDown moves the event at heap position i (0-based) toward the leaves
// until the heap order holds. Reports whether the event moved.
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(ev) {
			break
		}
		q[i] = q[child]
		q[i].pos = i + 1
		i = child
	}
	q[i] = ev
	ev.pos = i + 1
	return i != start
}

// push adds a detached event to the heap.
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	ev.pos = len(e.queue)
	e.siftUp(len(e.queue) - 1)
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	q := e.queue
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].pos = 1
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
	min.pos = 0
	return min
}

// remove detaches the event at heap position i (0-based).
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	removed := q[i]
	if i != n {
		q[i] = q[n]
		q[i].pos = i + 1
	}
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	removed.pos = 0
}

// At schedules handler to run at time t. Scheduling in the past panics: it
// would silently reorder causality. Returns the event so the caller may
// cancel it.
func (e *Engine) At(t Time, name string, handler Handler) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, t, e.now))
	}
	if handler == nil {
		panic("sim: nil handler for event " + name)
	}
	e.seq++
	ev := &Event{when: t, seq: e.seq, name: name, handler: handler}
	e.push(ev)
	return ev
}

// After schedules handler to run d after the current time.
func (e *Engine) After(d Time, name string, handler Handler) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, name, handler)
}

// Reschedule moves a still-pending event to time t, reusing its struct, and
// reports whether it did. The event receives a fresh sequence number, so the
// ordering among simultaneous events is exactly as if it had been cancelled
// and scheduled anew. Returns false when ev is nil, already run, or
// cancelled — the caller then schedules a fresh event with At. This is the
// allocation-free path for the owner-reschedules-own-event pattern that
// dominates the simulation (iteration-boundary events move on every
// allocation change).
func (e *Engine) Reschedule(ev *Event, t Time) bool {
	if ev == nil || ev.pos == 0 {
		return false
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling %q at %v before now %v", ev.name, t, e.now))
	}
	e.seq++
	ev.when = t
	ev.seq = e.seq
	i := ev.pos - 1
	if !e.siftDown(i) {
		e.siftUp(i)
	}
	return true
}

// ScheduleInto schedules handler at t, reusing ev's struct when ev is a
// previously returned (or zero-value embedded) event that is not currently
// pending. The caller must hold the only reference to ev — recycling an
// event another party still inspects would alias two logical events onto one
// struct. When ev is nil or still pending a fresh event is allocated
// instead. Either way the scheduled event is returned; the intended pattern
// is
//
//	r.ev = engine.ScheduleInto(r.ev, t, name, handler)
//
// for owners that re-arm the same conceptual event many times (iteration
// boundaries, scheduler quanta).
func (e *Engine) ScheduleInto(ev *Event, t Time, name string, handler Handler) *Event {
	if ev == nil || ev.pos > 0 {
		return e.At(t, name, handler)
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, t, e.now))
	}
	if handler == nil {
		panic("sim: nil handler for event " + name)
	}
	e.seq++
	ev.when = t
	ev.seq = e.seq
	ev.name = name
	ev.handler = handler
	e.push(ev)
	return ev
}

// Cancel removes a pending event. Cancelling a nil, already-run, or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.pos == 0 {
		return
	}
	e.remove(ev.pos - 1)
}

// SetInterrupt installs a check that Run consults between events, every
// interruptStride events (and once on entry). When it returns a non-nil
// error, Run stops immediately and InterruptErr reports the error. The
// canonical use is cancellation: pass ctx.Err to abort a simulation when the
// caller's context is done. A nil check disables interruption.
func (e *Engine) SetInterrupt(check func() error) {
	e.interrupt = check
	e.untilCheck = 0
}

// InterruptErr returns the error that stopped the last Run, or nil if the
// run ended normally (queue drained or deadline passed).
func (e *Engine) InterruptErr() error { return e.interruptErr }

// Run executes events in order until the queue empties or the clock passes
// deadline. It returns the final clock value. Events scheduled exactly at
// the deadline still run.
func (e *Engine) Run(deadline Time) Time {
	e.interruptErr = nil
	e.untilCheck = 0
	for len(e.queue) > 0 {
		if e.interrupt != nil {
			if e.untilCheck--; e.untilCheck < 0 {
				e.untilCheck = interruptStride - 1
				if err := e.interrupt(); err != nil {
					e.interruptErr = err
					return e.now
				}
			}
		}
		next := e.queue[0]
		if next.when > deadline {
			break
		}
		e.popMin()
		e.now = next.when
		e.Executed++
		next.handler()
	}
	if e.now < deadline && deadline != Forever {
		e.now = deadline
	}
	return e.now
}
