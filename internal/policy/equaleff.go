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
	e := new(EqualEfficiency)
	e.Reset()
	return e
}

// Reset initializes the policy with Window 1, no fits and no trace attached.
// It is the policy's only initializer: NewEqualEfficiency calls it on a zero
// value, and a reused policy keeps the alpha map's and the plan's storage.
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
	a, ok := fitAlpha(job.Reports, e.Window)
	if !ok {
		return
	}
	e.alpha[job.ID] = a
	if e.tr != nil {
		e.tr.Record(obs.Event{
			At: now, Kind: obs.KindExtrapolate, Job: int32(job.ID),
			Procs: int32(r.Procs), Eff: r.Efficiency, Speedup: a,
		})
	}
}

// fitAlpha fits the serialization parameter alpha of the model
// S(p) = p / (1 + alpha·(p-1)) to the last window reports: the model
// inverted at each sample, alpha = (p/S - 1) / (p - 1), averaged over the
// samples taken on more than one processor. ok is false when there is no
// such sample. Equal_efficiency and Dynamic share the fit.
func fitAlpha(reports []sched.Report, window int) (alpha float64, ok bool) {
	if len(reports) > window {
		reports = reports[len(reports)-window:]
	}
	sum, n := 0.0, 0
	for _, rep := range reports {
		if rep.Procs <= 1 || rep.Speedup <= 0 {
			continue
		}
		sum += (float64(rep.Procs)/rep.Speedup - 1) / float64(rep.Procs-1)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// modelDen is the fitted model's denominator 1 + a·(p-1), floored to keep
// superlinear (negative-alpha) fits from diverging.
func modelDen(a float64, p int) float64 {
	return max(1+a*float64(p-1), 0.05)
}

// extrapolatedEff returns the efficiency at p processors of a job fitted
// with serialization parameter a.
func extrapolatedEff(a float64, p int) float64 { return 1 / modelDen(a, p) }

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
