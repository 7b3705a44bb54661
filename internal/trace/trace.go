// Package trace records what every CPU executed over time, in the spirit of
// the paper's scpus/Paraver tooling.
//
// The recorder is fed CPU assignment changes by the machine model and job
// lifecycle events by the system driver. From the resulting burst list it
// derives the stability metrics of Table 2 (thread migrations, average burst
// duration per CPU, average number of bursts per CPU), the execution views
// of Fig. 5 (ASCII timeline rendering), and the multiprogramming-level
// timeline of Fig. 8.
//
// Every stored series is run-length encoded: per-CPU assignment streams
// collapse into bursts (one record per ownership change, not one per
// quantum), and the MPL and per-job allocation series drop consecutive
// duplicates. Per-job allocation histories live in a dense slice indexed
// by the workload's small integer job ids, keeping the recorder off the
// map-hash path the per-quantum callers would otherwise pay.
package trace

import (
	"pdpasim/internal/sim"
)

// NoJob marks a CPU as idle in assignment records.
const NoJob = -1

// Burst is a maximal interval during which one CPU continuously executed the
// same job. Idle periods are not stored as bursts.
type Burst struct {
	CPU   int
	Job   int
	Start sim.Time
	End   sim.Time
}

// Duration returns the burst length.
func (b Burst) Duration() sim.Time { return b.End - b.Start }

// TimePoint is one step of a piecewise-constant integer time series.
type TimePoint struct {
	At    sim.Time
	Value int
}

// Recorder accumulates the execution history of one simulation run. The zero
// value is unusable; call NewRecorder, or Reset to initialize it in place.
type Recorder struct {
	ncpu       int
	current    []int      // job per CPU, NoJob when idle
	burstStart []sim.Time // start of the current burst per CPU
	bursts     []Burst
	migrations int
	mpl        []TimePoint
	allocs     [][]TimePoint // per-job allocation history, dense by job id
	closed     bool
	end        sim.Time

	// KeepBursts controls whether closed bursts are stored (needed for
	// rendering and per-burst statistics). Aggregate counters are always
	// maintained. Defaults to true.
	KeepBursts bool

	burstCount    []int      // per CPU
	burstDuration []sim.Time // per CPU, sum over closed bursts
}

// NewRecorder returns a recorder for a machine with ncpu CPUs, all idle at
// time zero.
func NewRecorder(ncpu int) *Recorder {
	r := new(Recorder)
	r.Reset(ncpu)
	return r
}

// NCPU returns the number of CPUs being recorded.
func (r *Recorder) NCPU() int { return r.ncpu }

// Reset initializes the recorder for a machine with ncpu CPUs, all idle at
// time zero, with KeepBursts on. It is the recorder's only initializer:
// NewRecorder calls it on a zero value, and a reused recorder keeps every
// backing array — the per-CPU tables, the burst and MPL series, and each
// job's allocation history — so it appends its next run without
// reallocating.
func (r *Recorder) Reset(ncpu int) {
	r.ncpu = ncpu
	r.current = resizeInts(r.current, ncpu)
	r.burstStart = resizeTimes(r.burstStart, ncpu)
	r.burstCount = resizeInts(r.burstCount, ncpu)
	r.burstDuration = resizeTimes(r.burstDuration, ncpu)
	for i := range r.current {
		r.current[i] = NoJob
		r.burstStart[i] = 0
		r.burstCount[i] = 0
		r.burstDuration[i] = 0
	}
	r.bursts = r.bursts[:0]
	r.migrations = 0
	r.mpl = r.mpl[:0]
	// The outer allocs table keeps its length: its grow loop extends by
	// appending nil, so emptied inner histories are indistinguishable from a
	// fresh recorder — and the per-job history arrays (the dominant trace
	// allocation) are recycled.
	for i := range r.allocs {
		r.allocs[i] = r.allocs[i][:0]
	}
	r.closed = false
	r.end = 0
	r.KeepBursts = true
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeTimes(s []sim.Time, n int) []sim.Time {
	if cap(s) < n {
		return make([]sim.Time, n)
	}
	return s[:n]
}

// Assign records that cpu starts executing job at time t. Assigning the job
// the CPU is already running is a no-op (the burst continues). Assigning
// NoJob idles the CPU.
func (r *Recorder) Assign(t sim.Time, cpu, job int) {
	if cpu < 0 || cpu >= r.ncpu {
		panic("trace: CPU index out of range")
	}
	prev := r.current[cpu]
	if prev == job {
		return
	}
	if prev != NoJob {
		r.closeBurst(t, cpu)
	}
	r.current[cpu] = job
	if job != NoJob {
		r.burstStart[cpu] = t
	}
}

func (r *Recorder) closeBurst(t sim.Time, cpu int) {
	b := Burst{CPU: cpu, Job: r.current[cpu], Start: r.burstStart[cpu], End: t}
	if b.End > b.Start { // zero-length bursts carry no information
		if r.KeepBursts {
			r.bursts = append(r.bursts, b)
		}
		r.burstCount[cpu]++
		r.burstDuration[cpu] += b.Duration()
	}
}

// Migration records that a thread was scheduled on a different CPU than it
// last ran on.
func (r *Recorder) Migration() { r.migrations++ }

// ObserveMPL records the multiprogramming level (number of running jobs) at
// time t. Consecutive duplicates are collapsed.
func (r *Recorder) ObserveMPL(t sim.Time, level int) {
	if n := len(r.mpl); n > 0 && r.mpl[n-1].Value == level {
		return
	}
	r.mpl = append(r.mpl, TimePoint{At: t, Value: level})
}

// MPLTimeline returns the recorded multiprogramming-level series.
func (r *Recorder) MPLTimeline() []TimePoint { return r.mpl }

// ObserveAllocation records that job's processor allocation became procs at
// time t. Consecutive duplicates are collapsed (the series is run-length
// encoded by construction).
func (r *Recorder) ObserveAllocation(t sim.Time, job, procs int) {
	for len(r.allocs) <= job {
		r.allocs = append(r.allocs, nil)
	}
	hist := r.allocs[job]
	if n := len(hist); n > 0 && hist[n-1].Value == procs {
		return
	}
	if len(hist) == cap(hist) {
		// Grow 4× rather than append's 2×: time-sharing runs toggle each
		// job's allocation every few quanta, so histories reach hundreds of
		// points and the reallocation count matters more than the overshoot.
		c := cap(hist) * 4
		if c == 0 {
			c = 8
		}
		grown := make([]TimePoint, len(hist), c)
		copy(grown, hist)
		hist = grown
	}
	r.allocs[job] = append(hist, TimePoint{At: t, Value: procs})
}

// AllocationHistory returns the allocation series recorded for job, or nil.
func (r *Recorder) AllocationHistory(job int) []TimePoint {
	if job < 0 || job >= len(r.allocs) {
		return nil
	}
	return r.allocs[job]
}

// Close ends the recording at time t, closing all open bursts. Further
// assignments panic.
func (r *Recorder) Close(t sim.Time) {
	if r.closed {
		return
	}
	for cpu := range r.current {
		if r.current[cpu] != NoJob {
			r.closeBurst(t, cpu)
			r.current[cpu] = NoJob
		}
	}
	r.closed = true
	r.end = t
}

// Bursts returns all closed bursts (only if KeepBursts was true).
func (r *Recorder) Bursts() []Burst { return r.bursts }

// Stats summarizes scheduling stability, reproducing the columns of Table 2.
type Stats struct {
	Migrations int
	// AvgBurst is the mean duration a CPU continuously executed the same
	// application.
	AvgBurst sim.Time
	// AvgBurstsPerCPU is the mean number of bursts each CPU executed.
	AvgBurstsPerCPU float64
	// TotalBusy is the aggregate CPU busy time.
	TotalBusy sim.Time
	// Utilization is busy time over ncpu × recorded span (0 when the span
	// is unknown because the recorder is still open).
	Utilization float64
}

// Stats computes the stability statistics over the recorded history.
func (r *Recorder) Stats() Stats {
	var s Stats
	s.Migrations = r.migrations
	total := 0
	var busy sim.Time
	for cpu := 0; cpu < r.ncpu; cpu++ {
		total += r.burstCount[cpu]
		busy += r.burstDuration[cpu]
	}
	s.TotalBusy = busy
	if total > 0 {
		s.AvgBurst = busy / sim.Time(total)
	}
	if r.ncpu > 0 {
		s.AvgBurstsPerCPU = float64(total) / float64(r.ncpu)
	}
	if r.end > 0 && r.ncpu > 0 {
		s.Utilization = busy.Seconds() / (float64(r.ncpu) * r.end.Seconds())
	}
	return s
}
