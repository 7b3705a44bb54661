// Package rm implements the NANOS Resource Manager (Section 3.3): the
// user-level processor scheduler that decides how many processors each
// application receives and enforces the decision on the machine.
//
// Three managers exist:
//
//   - SpaceManager drives a sched.Policy (PDPA, Equipartition,
//     Equal_efficiency, Dynamic): disjoint per-job CPU partitions, resized
//     when the policy replans.
//   - IRIXManager models the native IRIX scheduler: every job runs as many
//     kernel threads as it requested and a per-quantum, affinity-preferring
//     time-sharing placement assigns threads to CPUs.
//   - GangManager is classic gang scheduling: jobs packed into the rows of
//     an Ousterhout matrix, rows run round-robin one time slot each.
//
// The two time-sharing models have no options: their parameters are
// constants of the evaluation's testbed (a 100 ms IRIX quantum, a 0.7
// busy-wait factor while oversubscribed, one OMP_DYNAMIC adjustment every
// 100 quanta, a 2 s gang slot). Neither charges a cost per thread migration
// or per gang switch; the recorder counts migrations for Table 2.
//
// Each manager has one initializer, its Reset; its New constructor is Reset
// on a zero value, so a reused manager is a fresh one by construction.
package rm

import (
	"cmp"
	"slices"

	"pdpasim/internal/nthlib"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
)

// Manager is what the system driver and queuing system need from a resource
// manager.
type Manager interface {
	// Name identifies the scheduling regime in results.
	Name() string
	// StartJob places a new application under the manager's control.
	StartJob(id sched.JobID, rt *nthlib.Runtime)
	// ReportPerformance delivers a SelfAnalyzer measurement for a job.
	ReportPerformance(id sched.JobID, m selfanalyzer.Measurement)
	// JobFinished removes a completed application.
	JobFinished(id sched.JobID)
	// CanAdmit reports whether the queuing system may start another job —
	// the processor-scheduler side of the coordinated multiprogramming
	// level (Section 4.3).
	CanAdmit() bool
	// Running returns the number of jobs under control.
	Running() int
	// SetAdmissionChanged registers a callback invoked whenever admission
	// conditions may have improved (allocations settled, jobs finished).
	SetAdmissionChanged(func())
}

// jobRecord is a manager's per-job record; every manager keeps its running
// set as a slice of them sorted by ascending id.
type jobRecord interface{ jobID() sched.JobID }

// insertByID adds j to the id-sorted set s. Ids mostly arrive in increasing
// order, so the common case is a plain append.
func insertByID[T jobRecord](s []T, j T) []T {
	s = append(s, j)
	for i := len(s) - 1; i > 0 && s[i-1].jobID() > j.jobID(); i-- {
		s[i-1], s[i] = s[i], s[i-1]
	}
	return s
}

// indexByID returns the position of id in the id-sorted set s, or -1.
func indexByID[T jobRecord](s []T, id sched.JobID) int {
	i, ok := slices.BinarySearchFunc(s, id, func(j T, id sched.JobID) int { return cmp.Compare(j.jobID(), id) })
	if !ok {
		return -1
	}
	return i
}
