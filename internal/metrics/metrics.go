// Package metrics aggregates per-run results: per-job response and execution
// times, per-class averages (the quantities Figs. 4, 6, 9, 10 plot), the
// workload execution time and multiprogramming level (Tables 3-4), and the
// scheduling stability statistics (Table 2).
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"pdpasim/internal/app"
	"pdpasim/internal/sim"
	"pdpasim/internal/stats"
	"pdpasim/internal/trace"
)

// JobResult is the outcome of one job.
type JobResult struct {
	ID      int
	Class   app.Class
	Request int
	// Submit is when the job entered the queuing system; Start is when it
	// began running; End is when it completed.
	Submit, Start, End sim.Time
	// CPUSeconds is the integral of the job's processor allocation over its
	// run (the CPU time it consumed).
	CPUSeconds float64
	// AvgAlloc is CPUSeconds divided by execution time.
	AvgAlloc float64
	// Slowdown is the classic scheduling metric: response time divided by
	// the job's dedicated-machine execution time at its requested size
	// (1 = as good as a dedicated machine).
	Slowdown float64
}

// Response is End - Submit: the time the user waits (the paper's headline
// metric).
func (j JobResult) Response() sim.Time { return j.End - j.Submit }

// Execution is End - Start.
func (j JobResult) Execution() sim.Time { return j.End - j.Start }

// RunResult is everything measured from one workload × policy run.
type RunResult struct {
	Policy   string
	Workload string
	// Load is the workload's calibrated demand fraction.
	Load float64
	// MPL is the configured (fixed or base) multiprogramming level.
	MPL  int
	NCPU int
	Seed int64

	Jobs []JobResult

	// Makespan is the time of the last completion (the workload execution
	// time measured from time zero; submissions start at zero).
	Makespan sim.Time
	// MaxMPL is the highest multiprogramming level reached.
	MaxMPL int
	// AvgMPL is the time-weighted average multiprogramming level.
	AvgMPL float64
	// MPLTimeline is the multiprogramming level over time (Fig. 8).
	MPLTimeline []trace.TimePoint
	// Stability carries Table 2's migration/burst statistics.
	Stability trace.Stats
	// Recorder is the run's execution trace (present when the run kept
	// bursts), usable for Fig. 5-style rendering.
	Recorder *trace.Recorder
}

// byClass folds a per-job scalar into per-class means.
func (r *RunResult) byClass(f func(JobResult) float64) map[app.Class]float64 {
	sums := map[app.Class]*stats.Summary{}
	for _, j := range r.Jobs {
		s, ok := sums[j.Class]
		if !ok {
			s = &stats.Summary{}
			sums[j.Class] = s
		}
		s.Add(f(j))
	}
	out := make(map[app.Class]float64, len(sums))
	for c, s := range sums {
		out[c] = s.Mean()
	}
	return out
}

// ResponseByClass returns the average response time (seconds) per class.
func (r *RunResult) ResponseByClass() map[app.Class]float64 {
	return r.byClass(func(j JobResult) float64 { return j.Response().Seconds() })
}

// ExecutionByClass returns the average execution time (seconds) per class.
func (r *RunResult) ExecutionByClass() map[app.Class]float64 {
	return r.byClass(func(j JobResult) float64 { return j.Execution().Seconds() })
}

// AvgAllocByClass returns the average processor allocation per class.
func (r *RunResult) AvgAllocByClass() map[app.Class]float64 {
	return r.byClass(func(j JobResult) float64 { return j.AvgAlloc })
}

// CPUSecondsTotal returns the total CPU time consumed by all jobs.
func (r *RunResult) CPUSecondsTotal() float64 {
	total := 0.0
	for _, j := range r.Jobs {
		total += j.CPUSeconds
	}
	return total
}

// Classes returns the classes present, in canonical order.
func (r *RunResult) Classes() []app.Class {
	seen := map[app.Class]bool{}
	for _, j := range r.Jobs {
		seen[j.Class] = true
	}
	var out []app.Class
	for _, c := range app.AllClasses() {
		if seen[c] {
			out = append(out, c)
		}
	}
	return out
}

// MinMaxAllocByClass returns the smallest and largest average allocation any
// job of the class received — the fairness measure the paper applies to
// Equal_efficiency ("from a minimum of 2 processors up to a maximum of 28").
func (r *RunResult) MinMaxAllocByClass(c app.Class) (lo, hi float64) {
	first := true
	for _, j := range r.Jobs {
		if j.Class != c {
			continue
		}
		if first || j.AvgAlloc < lo {
			lo = j.AvgAlloc
		}
		if first || j.AvgAlloc > hi {
			hi = j.AvgAlloc
		}
		first = false
	}
	return lo, hi
}

// String renders a compact result table.
func (r *RunResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s / %s load=%.0f%% ml=%d: makespan=%.0fs maxML=%d avgML=%.1f\n",
		r.Policy, r.Workload, r.Load*100, r.MPL, r.Makespan.Seconds(), r.MaxMPL, r.AvgMPL)
	resp := r.ResponseByClass()
	exec := r.ExecutionByClass()
	alloc := r.AvgAllocByClass()
	for _, c := range r.Classes() {
		fmt.Fprintf(&sb, "  %-8s resp=%8.1fs exec=%8.1fs cpus=%5.1f\n",
			c, resp[c], exec[c], alloc[c])
	}
	return sb.String()
}

// SortJobs orders jobs by ID.
func (r *RunResult) SortJobs() {
	sort.Slice(r.Jobs, func(i, j int) bool { return r.Jobs[i].ID < r.Jobs[j].ID })
}

// IntegrateAllocation computes the CPU-seconds a job consumed from its
// recorded allocation history and its completion time.
func IntegrateAllocation(history []trace.TimePoint, end sim.Time) float64 {
	total := 0.0
	for i, p := range history {
		if p.At >= end {
			break
		}
		until := end
		if i+1 < len(history) && history[i+1].At < end {
			until = history[i+1].At
		}
		if until > p.At {
			total += float64(p.Value) * (until - p.At).Seconds()
		}
	}
	return total
}

// TimeWeightedMPL computes the average multiprogramming level of a timeline
// over [0, end].
func TimeWeightedMPL(tl []trace.TimePoint, end sim.Time) float64 {
	var tw stats.TimeWeighted
	tw.Observe(0, 0)
	for _, p := range tl {
		tw.Observe(p.At.Seconds(), float64(p.Value))
	}
	tw.Finish(end.Seconds())
	return tw.Mean()
}
