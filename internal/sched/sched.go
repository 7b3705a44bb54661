// Package sched defines the vocabulary shared between the resource manager
// and the space-sharing processor allocation policies: the per-job view a
// policy sees, the performance reports flowing up from the runtime, and the
// Policy interface itself.
//
// Policies never see an application's true speedup curve — only the
// measurements the SelfAnalyzer reports — mirroring the paper's premise that
// a priori information is unavailable or untrustworthy.
package sched

import "pdpasim/internal/sim"

// JobID identifies one running job within a simulation.
type JobID int

// Report is one performance observation of a job, produced by the
// SelfAnalyzer and forwarded by the runtime.
type Report struct {
	// At is when the report was delivered.
	At sim.Time
	// Procs is the allocation the measurement was taken at.
	Procs int
	// Speedup is the measured speedup versus one processor.
	Speedup float64
	// Efficiency is Speedup/Procs.
	Efficiency float64
	// IterTime is the measured iteration wall time.
	IterTime sim.Time
}

// JobView is the scheduler-visible state of one running job.
type JobView struct {
	ID      JobID
	Name    string
	Request int
	// Gran is the job's allocation granularity: 1 for malleable OpenMP
	// jobs, Request for rigid MPI jobs, an intermediate process count for
	// MPI+OpenMP hybrids. The resource manager rounds grants to multiples
	// of Gran; policies may plan any number.
	Gran int
	// Allocated is the job's current processor allocation.
	Allocated int
	// Arrived is when the job started running (entered RM control).
	Arrived sim.Time
	// Reports is the job's performance history, oldest first. Policies may
	// read but must not mutate it.
	Reports []Report
}

// LastReport returns the most recent report, or nil.
func (j *JobView) LastReport() *Report {
	if len(j.Reports) == 0 {
		return nil
	}
	return &j.Reports[len(j.Reports)-1]
}

// HasPerformance reports whether the job has delivered any measurement yet.
func (j *JobView) HasPerformance() bool { return len(j.Reports) > 0 }

// View is the system snapshot a policy plans against.
type View struct {
	Now sim.Time
	// NCPU is the machine size.
	NCPU int
	// Jobs are the running jobs, sorted by ascending ID (arrival order).
	Jobs []*JobView
	// Queued is the number of jobs waiting in the queuing system.
	Queued int
}

// FreeCPUs returns NCPU minus the sum of current allocations (never
// negative).
func (v *View) FreeCPUs() int {
	used := 0
	for _, j := range v.Jobs {
		used += j.Allocated
	}
	if used >= v.NCPU {
		return 0
	}
	return v.NCPU - used
}

// Policy is a dynamic space-sharing processor allocation policy. The
// resource manager invokes the event hooks as things happen and then calls
// Plan to obtain the desired allocation for every running job; it applies
// the plan to the machine (shrinks before grows) and enforces feasibility.
//
// Implementations: PDPA (internal/core), Equipartition and Equal_efficiency
// (internal/policy). The native-IRIX model is not a Policy — it is a
// time-sharing resource manager of its own (internal/rm).
type Policy interface {
	// Name identifies the policy in results tables.
	Name() string
	// JobStarted notifies that job entered the system.
	JobStarted(now sim.Time, job *JobView)
	// JobFinished notifies that the job left the system.
	JobFinished(now sim.Time, id JobID)
	// ReportPerformance delivers a new measurement for job. The JobView
	// already includes it as the last element of Reports.
	ReportPerformance(now sim.Time, job *JobView, r Report)
	// Plan returns the desired allocation of every running job, aligned
	// with v.Jobs: entry i is the plan for v.Jobs[i]. A policy with no
	// opinion on a job returns its Allocated. The slice may be reused by
	// the next Plan call, so the caller consumes it before then. The
	// manager clamps the plan to machine capacity.
	Plan(v View) []int
	// WantsNewJob reports whether the queuing system may launch another job
	// now — the coordination between processor scheduling and job
	// scheduling that Section 4.3 describes. Fixed-multiprogramming
	// policies return true unconditionally and rely on the queuing system's
	// level.
	WantsNewJob(v View) bool
}
