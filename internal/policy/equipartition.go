// Package policy implements the baseline space-sharing processor allocation
// policies the paper compares PDPA against: Equipartition (McCann, Vaswani,
// Zahorjan) and Equal_efficiency (Nguyen, Zahorjan, Vaswani). The native
// IRIX scheduler model — a time-sharing manager, not a space-sharing
// policy — lives in internal/rm.
package policy

import (
	"slices"

	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
)

// Equipartition divides the machine equally among running jobs, capping each
// job at its request and redistributing the leftovers. Reallocations happen
// only at job arrival and completion (Section 3.3), which keeps the
// schedule stable but ignores how well applications use their processors.
type Equipartition struct {
	// plan is the current allocation, aligned with the job set it was
	// computed for and recomputed only when that set changes.
	plan  []int
	dirty bool
}

// Reset initializes the policy with no plan computed. It is the policy's
// only initializer: a new policy is Reset on a zero value, and a reused
// policy keeps the plan's storage.
func (e *Equipartition) Reset() {
	e.plan = e.plan[:0]
	e.dirty = true
}

// Name implements sched.Policy.
func (e *Equipartition) Name() string { return "Equip" }

// JobStarted implements sched.Policy: arrival triggers reallocation.
func (e *Equipartition) JobStarted(now sim.Time, job *sched.JobView) { e.dirty = true }

// JobFinished implements sched.Policy: completion triggers reallocation.
func (e *Equipartition) JobFinished(now sim.Time, id sched.JobID) { e.dirty = true }

// ReportPerformance implements sched.Policy. Equipartition ignores
// application performance.
func (e *Equipartition) ReportPerformance(now sim.Time, job *sched.JobView, r sched.Report) {}

// Plan implements sched.Policy. The cached plan stays aligned with v.Jobs
// because only JobStarted and JobFinished change the job set, and both
// mark it dirty.
func (e *Equipartition) Plan(v sched.View) []int {
	if e.dirty {
		e.dirty = false
		e.plan = Equipartitioned(e.plan, v.NCPU, v.Jobs)
	}
	return e.plan
}

// WantsNewJob implements sched.Policy: Equipartition runs under a fixed
// multiprogramming level enforced by the queuing system.
func (e *Equipartition) WantsNewJob(v sched.View) bool { return true }

// Equipartitioned computes an equal division of ncpu processors among jobs,
// capping each at its request: repeatedly give every unsatisfied job an
// equal share of what remains, with ties broken toward earlier arrivals
// (lower IDs; jobs are sorted by ascending ID, as in a View). Every job
// receives at least one processor when possible. The result is aligned
// with jobs and reuses plan's storage.
func Equipartitioned(plan []int, ncpu int, jobs []*sched.JobView) []int {
	out := slices.Grow(plan[:0], len(jobs))[:len(jobs)]
	clear(out)
	// req is job i's request, at least one processor; job i is unsatisfied
	// while out[i] < req(i).
	req := func(i int) int { return max(jobs[i].Request, 1) }

	remaining := ncpu
	for remaining > 0 {
		unsat := 0
		for i := range jobs {
			if out[i] < req(i) {
				unsat++
			}
		}
		if unsat == 0 {
			break
		}
		share := remaining / unsat
		if share == 0 {
			// Fewer processors than jobs: one each to the earliest until
			// exhausted.
			for i := range jobs {
				if remaining > 0 && out[i] < req(i) {
					out[i]++
					remaining--
				}
			}
			break
		}
		progressed := false
		for i := range jobs {
			if r := req(i); out[i] < r && r-out[i] <= share {
				// Fully satisfiable within the fair share.
				remaining -= r - out[i]
				out[i] = r
				progressed = true
			}
		}
		if !progressed {
			// Everyone wants more than the share: split evenly, leftovers
			// to the earliest jobs.
			extra := remaining % unsat
			for i := range jobs {
				if out[i] < req(i) {
					out[i] += share
					if extra > 0 {
						out[i]++
						extra--
					}
				}
			}
			break
		}
	}
	return out
}
