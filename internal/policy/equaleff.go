package policy

import (
	"slices"

	"pdpasim/internal/obs"
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
)

// EqualEfficiency implements the Equal_efficiency policy of Nguyen et al.:
// it extrapolates each application's efficiency curve from its runtime
// measurements and gives processors, one at a time, to the application whose
// extrapolated efficiency at its next processor is highest — equalizing
// marginal efficiency across the machine.
//
// Faithful to the paper's critique (Section 5.1), the policy reallocates on
// every performance report and extrapolates from a short window of noisy
// samples, so small measurement variations translate into large allocation
// swings, and superlinear applications (whose fitted serialization parameter
// goes negative) can capture wildly different allocations across instances.
type EqualEfficiency struct {
	// Window is how many recent reports the curve fit uses.
	Window int
	// alpha is the fitted serialization parameter per job: the model is
	// S(p) = p / (1 + alpha·(p-1)), i.e. eff(p) = 1 / (1 + alpha·(p-1)).
	// alpha 0 = perfect scaling; negative = superlinear.
	alpha map[sched.JobID]float64
	tr    *obs.Trace
	// plan, alphas and next are Plan's result, each job's alpha and its
	// extrapolated efficiency at its next processor, aligned with the
	// view's jobs and reused across calls.
	plan   []int
	alphas []float64
	next   []float64
}

// SetTrace attaches a decision-trace recorder (nil detaches): every curve
// refit is recorded as an extrapolate event carrying the fitted alpha.
func (e *EqualEfficiency) SetTrace(tr *obs.Trace) { e.tr = tr }

// NewEqualEfficiency returns an Equal_efficiency policy extrapolating from
// the most recent report — the per-measurement sensitivity the paper
// criticizes ('too sensitive to small changes in the efficiency
// measurements'). Raise Window to damp it.
func NewEqualEfficiency() *EqualEfficiency {
	return &EqualEfficiency{Window: 1, alpha: map[sched.JobID]float64{}}
}

// Reset reinitializes the policy to the state NewEqualEfficiency would
// produce (Window 1, no fits, trace detached), keeping the alpha map's
// storage.
func (e *EqualEfficiency) Reset() {
	e.Window = 1
	if e.alpha == nil {
		e.alpha = map[sched.JobID]float64{}
	} else {
		clear(e.alpha)
	}
	e.tr = nil
}

// Name implements sched.Policy.
func (e *EqualEfficiency) Name() string { return "Equal_eff" }

// JobStarted implements sched.Policy. New jobs are assumed to scale
// perfectly until measured — the optimistic extrapolation the original
// policy uses.
func (e *EqualEfficiency) JobStarted(now sim.Time, job *sched.JobView) {
	e.alpha[job.ID] = 0
}

// JobFinished implements sched.Policy.
func (e *EqualEfficiency) JobFinished(now sim.Time, id sched.JobID) {
	delete(e.alpha, id)
}

// ReportPerformance implements sched.Policy: refit the job's efficiency
// curve from its recent reports.
func (e *EqualEfficiency) ReportPerformance(now sim.Time, job *sched.JobView, r sched.Report) {
	reports := job.Reports
	if len(reports) > e.Window {
		reports = reports[len(reports)-e.Window:]
	}
	sum, n := 0.0, 0
	for _, rep := range reports {
		if rep.Procs <= 1 || rep.Speedup <= 0 {
			continue
		}
		// Invert the model at the sample: alpha = (p/S - 1) / (p - 1).
		a := (float64(rep.Procs)/rep.Speedup - 1) / float64(rep.Procs-1)
		sum += a
		n++
	}
	if n == 0 {
		return
	}
	e.alpha[job.ID] = sum / float64(n)
	if e.tr != nil {
		e.tr.Record(obs.Event{
			At: now, Kind: obs.KindExtrapolate, Job: int32(job.ID),
			Procs: int32(r.Procs), Eff: r.Efficiency, Speedup: e.alpha[job.ID],
		})
	}
}

// extrapolatedEff returns the efficiency at p processors of a job fitted
// with serialization parameter a. The denominator is floored to keep
// superlinear (negative-alpha) fits from diverging.
func extrapolatedEff(a float64, p int) float64 {
	den := 1 + a*float64(p-1)
	if den < 0.05 {
		den = 0.05
	}
	return 1 / den
}

// Plan implements sched.Policy: water-filling by extrapolated efficiency.
// Every job gets one processor (run-to-completion); each remaining processor
// goes to the job, below its request, with the highest extrapolated
// efficiency at its next processor.
func (e *EqualEfficiency) Plan(v sched.View) []int {
	jobs := v.Jobs // already sorted by ascending ID (View contract)
	plan := slices.Grow(e.plan[:0], len(jobs))[:len(jobs)]
	alphas := slices.Grow(e.alphas[:0], len(jobs))[:len(jobs)]
	next := slices.Grow(e.next[:0], len(jobs))[:len(jobs)]
	e.plan, e.alphas, e.next = plan, alphas, next

	remaining := v.NCPU
	for i, j := range jobs {
		alphas[i] = e.alpha[j.ID]
		if remaining == 0 {
			plan[i] = 0
		} else {
			plan[i] = 1
			remaining--
		}
		next[i] = extrapolatedEff(alphas[i], plan[i]+1)
	}
	for remaining > 0 {
		best := -1
		bestEff := -1.0
		for i, j := range jobs {
			if plan[i] < j.Request && next[i] > bestEff {
				best, bestEff = i, next[i]
			}
		}
		if best < 0 {
			break
		}
		plan[best]++
		next[best] = extrapolatedEff(alphas[best], plan[best]+1)
		remaining--
	}
	return plan
}

// WantsNewJob implements sched.Policy: Equal_efficiency runs under a fixed
// multiprogramming level enforced by the queuing system.
func (e *EqualEfficiency) WantsNewJob(v sched.View) bool { return true }

// Alpha returns the fitted serialization parameter for a job (0 when
// unknown) — exposed for tests and diagnostics.
func (e *EqualEfficiency) Alpha(id sched.JobID) float64 { return e.alpha[id] }
