package policy

import (
	"slices"

	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
)

// Dynamic implements the processor allocation policy of McCann, Vaswani, and
// Zahorjan (TOCS 1993), one of the policies the paper's related work
// discusses: processors move eagerly to wherever they can be used, driven by
// each application's reported ability to use them, with no efficiency
// target. "Their approach considers the idleness ... and results in a large
// number of reallocations" (Section 2).
//
// This implementation estimates each application's marginal speedup from its
// recent measurements (the same fitted model Equal_efficiency uses) and
// water-fills processors by marginal speedup: every processor goes to the
// application whose total speedup it raises most. It replans on every
// report, arrival, and completion — maximizing instantaneous utilization at
// the price of constant reallocation.
type Dynamic struct {
	// Window is how many recent reports the curve fit uses.
	Window int
	alpha  map[sched.JobID]float64
	// plan, alphas and gains are Plan's result, each job's alpha and the
	// fitted speedup its next processor adds, aligned with the view's jobs
	// and reused across calls.
	plan   []int
	alphas []float64
	gains  []float64
}

// NewDynamic returns a Dynamic policy.
func NewDynamic() *Dynamic {
	d := new(Dynamic)
	d.Reset()
	return d
}

// Reset initializes the policy with Window 3 and no fits. It is the policy's
// only initializer: NewDynamic calls it on a zero value, and a reused policy
// keeps the alpha map's and the plan's storage.
func (d *Dynamic) Reset() {
	d.Window = 3
	if d.alpha == nil {
		d.alpha = map[sched.JobID]float64{}
	} else {
		clear(d.alpha)
	}
}

// Name implements sched.Policy.
func (d *Dynamic) Name() string { return "Dynamic" }

// JobStarted implements sched.Policy.
func (d *Dynamic) JobStarted(now sim.Time, job *sched.JobView) { d.alpha[job.ID] = 0 }

// JobFinished implements sched.Policy.
func (d *Dynamic) JobFinished(now sim.Time, id sched.JobID) { delete(d.alpha, id) }

// ReportPerformance implements sched.Policy.
func (d *Dynamic) ReportPerformance(now sim.Time, job *sched.JobView, r sched.Report) {
	if a, ok := fitAlpha(job.Reports, d.Window); ok {
		d.alpha[job.ID] = a
	}
}

// fitted returns the modeled speedup at p processors of a job fitted with
// serialization parameter a.
func fitted(a float64, p int) float64 {
	if p < 1 {
		return 0
	}
	return float64(p) / modelDen(a, p)
}

// Plan implements sched.Policy: marginal-speedup water-filling. Each job
// gets one processor (run-to-completion); each further processor goes to the
// job with the largest fitted speedup gain.
func (d *Dynamic) Plan(v sched.View) []int {
	jobs := v.Jobs // already sorted by ascending ID (View contract)
	plan := slices.Grow(d.plan[:0], len(jobs))[:len(jobs)]
	alphas := slices.Grow(d.alphas[:0], len(jobs))[:len(jobs)]
	gains := slices.Grow(d.gains[:0], len(jobs))[:len(jobs)]
	d.plan, d.alphas, d.gains = plan, alphas, gains
	gain := func(i int) float64 { return fitted(alphas[i], plan[i]+1) - fitted(alphas[i], plan[i]) }

	remaining := v.NCPU
	for i, j := range jobs {
		alphas[i] = d.alpha[j.ID]
		if remaining == 0 {
			plan[i] = 0
		} else {
			plan[i] = 1
			remaining--
		}
		gains[i] = gain(i)
	}
	for remaining > 0 {
		best := -1
		bestGain := 0.0
		for i, j := range jobs {
			if plan[i] < j.Request && gains[i] > bestGain {
				best, bestGain = i, gains[i]
			}
		}
		if best < 0 {
			break
		}
		plan[best]++
		gains[best] = gain(best)
		remaining--
	}
	return plan
}

// WantsNewJob implements sched.Policy: Dynamic runs under a fixed
// multiprogramming level enforced by the queuing system.
func (d *Dynamic) WantsNewJob(v sched.View) bool { return true }
