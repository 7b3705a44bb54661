// Package invariant checks cross-cutting scheduling invariants — the
// properties that must hold for every policy, workload, and failure mode:
// allocated CPUs never exceed the machine, no CPU is held after its job
// completes, multiprogramming-level accounting never goes negative, and job
// lifecycles are well-ordered.
//
// Checker consumes the decision-trace event stream (obs.ExportEvent — the
// facade's TraceEvent is an alias, so a Checker plugs straight into an
// Observer) and verifies the invariants online as events arrive.
// Allocation invariants ride on realloc events, which only the
// space-sharing resource managers record; IRIX time-sharing runs are
// covered by lifecycle and MPL accounting here, and the package's grid
// test applies the machine-level forms of the same invariants to each
// run's recorded execution history, including CPU conservation for
// time-sharing policies, which the event stream cannot see.
package invariant

import (
	"fmt"
	"sync"

	"pdpasim/internal/obs"
)

// maxViolations bounds how many violations a checker retains; a broken run
// can produce one per event, and the first few localize the bug.
const maxViolations = 50

// Checker verifies invariants over a decision-trace event stream. Feed it
// events through Observe, then read Violations (or Err). Safe for
// concurrent use; events are expected in recorded order.
type Checker struct {
	mu         sync.Mutex
	ncpu       int
	total      int // sum of live allocations (space-sharing runs)
	queued     int
	running    int
	jobs       map[int]*jobState
	violations []string
	suppressed int
}

type jobState struct {
	alloc   int
	arrived bool
	started bool
	done    bool
}

// New returns an empty checker; the machine size is learned from the
// run_start event.
func New() *Checker {
	return &Checker{jobs: make(map[int]*jobState)}
}

func (c *Checker) violate(format string, args ...any) {
	if len(c.violations) >= maxViolations {
		c.suppressed++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

func (c *Checker) job(id int) *jobState {
	js, ok := c.jobs[id]
	if !ok {
		js = &jobState{}
		c.jobs[id] = js
	}
	return js
}

// Observe feeds one event. The signature matches pdpasim.ObserverFunc
// (TraceEvent aliases obs.ExportEvent), so a Checker can watch a run live:
//
//	opts.Observer = pdpasim.ObserverFunc(chk.Observe)
func (c *Checker) Observe(e obs.ExportEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()

	switch e.Kind {
	case "run_start":
		c.ncpu = e.Procs
	case "job_arrive":
		js := c.job(e.Job)
		if js.arrived {
			c.violate("job %d arrived twice", e.Job)
			return
		}
		js.arrived = true
		c.queued++
	case "job_start":
		js := c.job(e.Job)
		switch {
		case !js.arrived:
			c.violate("job %d started before arriving", e.Job)
		case js.started:
			c.violate("job %d started twice", e.Job)
		case js.done:
			c.violate("job %d started after completing", e.Job)
		}
		js.started = true
		c.queued--
		c.running++
		if c.queued < 0 {
			c.violate("queued-job accounting negative (%d) at job %d start", c.queued, e.Job)
		}
	case "job_done":
		js := c.job(e.Job)
		switch {
		case !js.started:
			c.violate("job %d completed without starting", e.Job)
		case js.done:
			c.violate("job %d completed twice", e.Job)
		}
		js.done = true
		c.running--
		if c.running < 0 {
			c.violate("MPL accounting negative (%d) at job %d completion", c.running, e.Job)
		}
		// The resource manager releases the job's partition at the same
		// instant without tracing a realloc; mirror the implicit release so
		// the conservation sum stays honest. The grid test verifies from the
		// burst history that the CPUs really were given back.
		c.total -= js.alloc
		js.alloc = 0
	case "realloc":
		js := c.job(e.Job)
		if js.done {
			c.violate("job %d reallocated (%d→%d CPUs) after completing", e.Job, e.Old, e.New)
			return
		}
		if js.alloc != e.Old {
			c.violate("job %d realloc claims old=%d but it holds %d", e.Job, e.Old, js.alloc)
		}
		if e.New < 0 {
			c.violate("job %d reallocated to negative %d CPUs", e.Job, e.New)
		}
		c.total += e.New - js.alloc
		js.alloc = e.New
		if c.ncpu > 0 && c.total > c.ncpu {
			c.violate("allocated %d CPUs at t=%dµs exceeds machine size %d", c.total, e.AtUS, c.ncpu)
		}
	case "run_end":
		for id, js := range c.jobs {
			if js.started && !js.done {
				c.violate("job %d still running at run end", id)
			}
			if js.alloc != 0 {
				c.violate("job %d holds %d CPUs at run end", id, js.alloc)
			}
		}
		if c.running > 0 {
			c.violate("MPL accounting shows %d running jobs at run end", c.running)
		}
	}
}

// Violations returns the recorded violations (nil when every invariant held).
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.violations...)
	if c.suppressed > 0 {
		out = append(out, fmt.Sprintf("... and %d more suppressed", c.suppressed))
	}
	return out
}

// Err returns nil when every invariant held, else an error summarizing the
// first violations.
func (c *Checker) Err() error {
	v := c.Violations()
	if len(v) == 0 {
		return nil
	}
	n := len(v)
	if n > 5 {
		v = v[:5]
	}
	return fmt.Errorf("invariant: %d violation(s): %v", n, v)
}
