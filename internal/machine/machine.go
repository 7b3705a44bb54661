// Package machine models the multiprocessor: a fixed set of CPUs whose
// ownership changes over time under a scheduling policy.
//
// The model plays the role of the paper's SGI Origin 2000. It supports both
// modes the evaluation needs:
//
//   - space sharing (Equipartition, Equal_efficiency, PDPA): each job owns a
//     disjoint CPU set that changes only at reallocations. Resize preserves
//     affinity — a job keeps as many of its current CPUs as possible — and
//     counts a thread migration whenever an existing kernel thread is placed
//     on a CPU different from the one it last ran on.
//
//   - per-quantum time sharing (the IRIX model): the policy decides each
//     quantum which thread runs on which CPU; the machine executes the
//     placement and does the same burst/migration bookkeeping.
//
// All bookkeeping flows into a trace.Recorder, from which Table 2's
// stability metrics and Fig. 5's execution views are derived. The machine
// counts migrations but charges nothing for them: no model slows a job
// down for a thread that moved.
//
// The machine sits on the per-quantum hot path of every simulated run
// (~3000 quanta × 60 CPUs for a 300-second IRIX run), so its state is held
// in dense, profile-chosen structures rather than maps: per-job slice-backed
// thread-affinity tables (job ids are dense small integers assigned by the
// workload generator) and a uint64 bitset of free CPUs with an
// incrementally maintained free count.
package machine

import (
	"fmt"
	"math/bits"

	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

// Free marks an unowned CPU.
const Free = -1

// noCPU marks a thread that has never run in the affinity tables.
const noCPU = -1

// ThreadID identifies one kernel thread of one job.
type ThreadID struct {
	Job    int
	Thread int
}

// Machine is the multiprocessor model. Create with New, or initialize in
// place with Reset.
type Machine struct {
	ncpu  int
	owner []int // job owning each CPU (space sharing), Free if none
	// nfree is the incrementally maintained count of Free entries in owner,
	// so FreeCPUs never scans.
	nfree int
	// freeMask is the bitset mirror of owner (bit set = CPU free), so
	// pickFreeCPUs walks set bits instead of scanning all owners.
	freeMask []uint64
	// jobCPUs is the CPU list per job, indexed by job id (dense, assigned by
	// the workload generator); thread i runs on jobCPUs[job][i]. A nil or
	// empty entry means the job owns nothing.
	jobCPUs [][]int
	// aff is the per-job thread-affinity table: aff[job][thread] is the CPU
	// the thread last ran on, noCPU if it never ran. Replacing the former
	// map[ThreadID]int makes Release/ForgetThreads O(1) per job instead of
	// O(all threads), and the per-placement lookups index two slices instead
	// of hashing a 16-byte key.
	aff [][]int32
	// affPool and cpuPool recycle detached per-job tables (every entry has
	// capacity >= ncpu), so a stream of short jobs reuses a handful of
	// tables instead of allocating one per job.
	affPool [][]int32
	cpuPool [][]int
	rec     *trace.Recorder
	// numaNodeSize groups CPUs into NUMA nodes (see SetNodeSize); <= 1
	// means a flat SMP.
	numaNodeSize int

	// quantumSeen is PlaceQuantum scratch: a bitset of CPUs mentioned this
	// quantum.
	quantumSeen []uint64

	// pickScratch buffers for the NUMA pickFreeCPUs path, reused across
	// calls.
	pickOut     []int
	nodeFree    [][]int
	nodeFreeMem []int
	nodeOrder   []int
	nodeOwned   []bool
}

// New returns a machine with ncpu processors, all free. The recorder may be
// nil, in which case no trace is kept (migration counts are then unavailable).
func New(ncpu int, rec *trace.Recorder) *Machine {
	m := new(Machine)
	m.Reset(ncpu, rec)
	return m
}

// Reset initializes the machine with ncpu processors, all free, recording
// into rec (nil keeps no trace), as a flat SMP; callers re-apply SetNodeSize
// per run. It is the machine's only initializer: New calls it on a zero
// value, and a reused machine is reset in place — callers that cached the
// *Machine keep a valid pointer — recycling every per-job table into the
// pools and keeping the dense per-CPU arrays.
func (m *Machine) Reset(ncpu int, rec *trace.Recorder) {
	if ncpu <= 0 {
		panic("machine: ncpu must be positive")
	}
	if rec != nil && rec.NCPU() != ncpu {
		panic("machine: recorder CPU count mismatch")
	}
	for j := range m.jobCPUs {
		if c := m.jobCPUs[j]; cap(c) > 0 {
			m.cpuPool = append(m.cpuPool, c[:0])
		}
		m.jobCPUs[j] = nil
	}
	m.jobCPUs = m.jobCPUs[:0]
	for j := range m.aff {
		m.recycleAff(j)
	}
	m.aff = m.aff[:0]
	if ncpu != m.ncpu {
		m.ncpu = ncpu
		if cap(m.owner) < ncpu {
			m.owner = make([]int, ncpu)
		} else {
			m.owner = m.owner[:ncpu]
		}
		words := (ncpu + 63) / 64
		if cap(m.freeMask) < words {
			m.freeMask = make([]uint64, words)
		} else {
			m.freeMask = m.freeMask[:words]
		}
		m.quantumSeen = nil // PlaceQuantum re-sizes it lazily
	}
	for i := range m.owner {
		m.owner[i] = Free
	}
	for i := range m.freeMask {
		m.freeMask[i] = ^uint64(0)
	}
	if tail := ncpu % 64; tail != 0 {
		m.freeMask[len(m.freeMask)-1] = (uint64(1) << tail) - 1
	}
	m.nfree = ncpu
	m.rec = rec
	m.numaNodeSize = 0
}

// NCPU returns the machine size.
func (m *Machine) NCPU() int { return m.ncpu }

// FreeCPUs returns how many CPUs are currently unowned.
func (m *Machine) FreeCPUs() int { return m.nfree }

// Owner returns the job owning cpu, or Free.
func (m *Machine) Owner(cpu int) int { return m.owner[cpu] }

// setOwner records cpu's new owner (job or Free), keeping the free count and
// the free bitset in sync with the owner array.
func (m *Machine) setOwner(cpu, job int) {
	prev := m.owner[cpu]
	if prev == job {
		return
	}
	m.owner[cpu] = job
	if prev == Free {
		m.nfree--
		m.freeMask[cpu>>6] &^= uint64(1) << (cpu & 63)
	} else if job == Free {
		m.nfree++
		m.freeMask[cpu>>6] |= uint64(1) << (cpu & 63)
	}
}

// ensureJob grows the per-job tables to cover job.
func (m *Machine) ensureJob(job int) {
	if job < len(m.jobCPUs) {
		return
	}
	for len(m.jobCPUs) <= job {
		m.jobCPUs = append(m.jobCPUs, nil)
	}
	for len(m.aff) <= job {
		m.aff = append(m.aff, nil)
	}
}

// affTable returns job tid.Job's affinity table, grown to cover tid.Thread.
// New tables come from the pool when possible and carry at least ncpu
// capacity, so a job's table is allocated (or recycled) once regardless of
// how its thread count evolves.
func (m *Machine) affTable(tid ThreadID) []int32 {
	m.ensureJob(tid.Job)
	table := m.aff[tid.Job]
	if cap(table) <= tid.Thread {
		var grown []int32
		if n := len(m.affPool); n > 0 {
			cand := m.affPool[n-1]
			m.affPool = m.affPool[:n-1]
			if cap(cand) > tid.Thread {
				grown = cand[:0]
			}
		}
		if grown == nil {
			c := m.ncpu
			if c <= tid.Thread {
				c = tid.Thread + 1
			}
			grown = make([]int32, 0, c)
		}
		table = append(grown, table...)
	}
	for len(table) <= tid.Thread {
		table = append(table, noCPU)
	}
	m.aff[tid.Job] = table
	return table
}

// recycleAff detaches job's affinity table into the pool.
func (m *Machine) recycleAff(job int) {
	if t := m.aff[job]; cap(t) > 0 {
		m.affPool = append(m.affPool, t[:0])
	}
	m.aff[job] = nil
}

// Allocated returns the number of CPUs job currently owns.
func (m *Machine) Allocated(job int) int {
	if job < 0 || job >= len(m.jobCPUs) {
		return 0
	}
	return len(m.jobCPUs[job])
}

// CPUs returns a copy of the CPU list owned by job, in thread order. The
// copy is the caller's to keep; use CPUsView on hot paths that only read.
func (m *Machine) CPUs(job int) []int {
	cur := m.cpusOf(job)
	out := make([]int, len(cur))
	copy(out, cur)
	return out
}

// CPUsView returns the CPU list owned by job, in thread order, WITHOUT
// copying: the returned slice aliases the machine's internal state and is
// valid only until the next Resize/Release/PlaceQuantum call. Callers must
// not modify or retain it. It exists for per-tick read-only loops (the
// memory model's locality accounting); everything else should use CPUs.
func (m *Machine) CPUsView(job int) []int { return m.cpusOf(job) }

func (m *Machine) cpusOf(job int) []int {
	if job < 0 || job >= len(m.jobCPUs) {
		return nil
	}
	return m.jobCPUs[job]
}

// Jobs returns the ids of all jobs owning at least one CPU, sorted.
func (m *Machine) Jobs() []int {
	var out []int
	for j, cpus := range m.jobCPUs {
		if len(cpus) > 0 {
			out = append(out, j)
		}
	}
	return out
}

// Resize changes job's allocation to want CPUs (clamped to what is free) and
// returns the number actually granted. Affinity is preserved: the job keeps
// its lowest-ranked current CPUs when shrinking and extends with free CPUs
// when growing. Each pre-existing thread placed on a new CPU counts as one
// migration.
func (m *Machine) Resize(t sim.Time, job, want int) int {
	if job < 0 {
		panic("machine: negative job id")
	}
	if want < 0 {
		want = 0
	}
	m.ensureJob(job)
	cur := m.jobCPUs[job]
	switch {
	case want < len(cur):
		m.shrink(t, job, want)
	case want > len(cur):
		m.grow(t, job, want)
	}
	return len(m.jobCPUs[job])
}

func (m *Machine) shrink(t sim.Time, job, want int) {
	cur := m.jobCPUs[job]
	for _, cpu := range cur[want:] {
		m.setOwner(cpu, Free)
		if m.rec != nil {
			m.rec.Assign(t, cpu, trace.NoJob)
		}
	}
	m.jobCPUs[job] = cur[:want]
}

func (m *Machine) grow(t sim.Time, job, want int) {
	cur := m.jobCPUs[job]
	if cap(cur) < want {
		var grown []int
		if n := len(m.cpuPool); n > 0 {
			cand := m.cpuPool[n-1]
			m.cpuPool = m.cpuPool[:n-1]
			if cap(cand) >= want {
				grown = cand[:0]
			}
		}
		if grown == nil {
			c := m.ncpu
			if c < want {
				c = want
			}
			grown = make([]int, 0, c)
		}
		cur = append(grown, cur...)
	}
	for _, cpu := range m.pickFreeCPUs(job, want-len(cur)) {
		slot := &m.affTable(ThreadID{Job: job, Thread: len(cur)})[len(cur)]
		m.setOwner(cpu, job)
		if last := *slot; last != noCPU && int(last) != cpu {
			if m.rec != nil {
				m.rec.Migration()
			}
		}
		*slot = int32(cpu)
		if m.rec != nil {
			m.rec.Assign(t, cpu, job)
		}
		cur = append(cur, cpu)
	}
	m.jobCPUs[job] = cur
}

// Release frees every CPU owned by job (job completion). Thread-affinity
// memory is dropped in O(1): the job's table is detached whole, not scanned
// entry by entry.
func (m *Machine) Release(t sim.Time, job int) {
	m.ensureJob(job)
	m.shrink(t, job, 0)
	if c := m.jobCPUs[job]; cap(c) > 0 {
		m.cpuPool = append(m.cpuPool, c[:0])
	}
	m.jobCPUs[job] = nil
	m.recycleAff(job)
}

// Placement is one per-quantum decision in time-sharing mode: thread Thread
// of job Job runs on CPU for the coming quantum.
type Placement struct {
	CPU    int
	Thread ThreadID
}

// PlaceQuantum applies a full time-sharing placement for the quantum starting
// at t. CPUs not mentioned become idle. Placing a thread on a CPU different
// from its previous one counts a migration in the recorder. PlaceQuantum
// must not be mixed with Resize ownership on the same machine instance. Job
// ids must be non-negative.
//
// Unchanged ownership does not reach the trace recorder at all: the owner
// array acts as the run-length encoder for the per-CPU assignment stream, so
// the IRIX model's one-placement-per-CPU-per-quantum firehose collapses to
// actual ownership changes.
func (m *Machine) PlaceQuantum(t sim.Time, placements []Placement) {
	if m.quantumSeen == nil {
		m.quantumSeen = make([]uint64, len(m.freeMask))
	}
	seen := m.quantumSeen
	clear(seen)
	// Placements come grouped by job, so the affinity table of the job
	// placed last is kept at hand rather than looked up per placement.
	tableJob, table := -1, []int32(nil)
	for _, p := range placements {
		if p.CPU < 0 || p.CPU >= m.ncpu {
			panic(fmt.Sprintf("machine: placement CPU %d out of range", p.CPU))
		}
		if p.Thread.Job < 0 {
			panic(fmt.Sprintf("machine: negative job id %d in placement", p.Thread.Job))
		}
		w, b := p.CPU>>6, uint64(1)<<(p.CPU&63)
		if seen[w]&b != 0 {
			panic(fmt.Sprintf("machine: CPU %d placed twice in one quantum", p.CPU))
		}
		seen[w] |= b
		if p.Thread.Job != tableJob || p.Thread.Thread >= len(table) {
			tableJob, table = p.Thread.Job, m.affTable(p.Thread)
		}
		slot := &table[p.Thread.Thread]
		if last := *slot; last != noCPU && int(last) != p.CPU && m.rec != nil {
			m.rec.Migration()
		}
		*slot = int32(p.CPU)
		if m.owner[p.CPU] != p.Thread.Job {
			m.setOwner(p.CPU, p.Thread.Job)
			if m.rec != nil {
				m.rec.Assign(t, p.CPU, p.Thread.Job)
			}
		}
	}
	// Idle every owned CPU the placement did not mention: walk the set bits
	// of owned-and-unseen instead of scanning all CPUs.
	for w := range seen {
		idle := ^m.freeMask[w] &^ seen[w]
		if w == len(seen)-1 {
			if tail := m.ncpu % 64; tail != 0 {
				idle &= (uint64(1) << tail) - 1
			}
		}
		for idle != 0 {
			cpu := w<<6 + bits.TrailingZeros64(idle)
			idle &= idle - 1
			m.setOwner(cpu, Free)
			if m.rec != nil {
				m.rec.Assign(t, cpu, trace.NoJob)
			}
		}
	}
}

// ForgetThreads drops thread-affinity memory for job (used when a job exits
// in time-sharing mode). O(1): the per-job table is detached whole.
func (m *Machine) ForgetThreads(job int) {
	if job < 0 || job >= len(m.aff) {
		return
	}
	m.recycleAff(job)
}

// LastCPUsView returns job's per-thread affinity table WITHOUT copying:
// entry i is the CPU thread i last ran on, or negative if it has not run,
// and threads past the end have not run either. The slice aliases the
// machine's internal state and is valid only until the next Resize,
// Release, PlaceQuantum or ForgetThreads call; callers must not modify or
// retain it. The time-sharing scheduler's per-quantum affinity pass reads
// it once per job, not once per thread.
func (m *Machine) LastCPUsView(job int) []int32 {
	if job < 0 || job >= len(m.aff) {
		return nil
	}
	return m.aff[job]
}
