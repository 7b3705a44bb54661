package machine

import (
	"math/rand"
	"sort"
	"testing"

	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

// The randomized equivalence tests drive the optimized Machine (dense
// affinity tables, bitset free sets, RLE trace feeding) against refMachine, a
// deliberately naive reimplementation of the documented semantics (maps,
// full-array scans, per-step burst bookkeeping). After every operation the
// two must agree on ownership, free counts, per-job CPU lists, thread
// affinity, and the recorded migration count; at the end the naive burst
// log must match the recorder's run-length-encoded output exactly.
//
// Space-sharing (Resize/Release) and time-sharing (PlaceQuantum/
// ForgetThreads) run as separate modes: the Machine documents that the two
// ownership styles must not be mixed on one instance.

// refMachine is the naive reference implementation.
type refMachine struct {
	ncpu     int
	nodeSize int
	owner    []int
	cpus     map[int][]int    // job -> CPU list, assignment order
	lastCPU  map[ThreadID]int // thread -> last CPU
	migTotal int

	// naive per-CPU burst log
	cur      []int // job per CPU, -1 idle
	curStart []sim.Time
	bursts   []trace.Burst
}

func newRefMachine(ncpu, nodeSize int) *refMachine {
	r := &refMachine{
		ncpu:     ncpu,
		nodeSize: nodeSize,
		owner:    make([]int, ncpu),
		cpus:     map[int][]int{},
		lastCPU:  map[ThreadID]int{},
		cur:      make([]int, ncpu),
		curStart: make([]sim.Time, ncpu),
	}
	for i := range r.owner {
		r.owner[i] = Free
		r.cur[i] = Free
	}
	return r
}

func (r *refMachine) assign(t sim.Time, cpu, job int) {
	if r.cur[cpu] == job {
		return
	}
	if r.cur[cpu] != Free && t > r.curStart[cpu] {
		r.bursts = append(r.bursts, trace.Burst{CPU: cpu, Job: r.cur[cpu], Start: r.curStart[cpu], End: t})
	}
	r.cur[cpu] = job
	r.curStart[cpu] = t
}

func (r *refMachine) close(t sim.Time) {
	for cpu := range r.cur {
		if r.cur[cpu] != Free {
			r.assign(t, cpu, Free)
		}
	}
}

func (r *refMachine) free() int {
	n := 0
	for _, o := range r.owner {
		if o == Free {
			n++
		}
	}
	return n
}

// pickFree reproduces pickFreeCPUs naively: ascending CPU order on a flat
// machine; on a NUMA machine, nodes the job occupies first, then nodes with
// more free CPUs, then node index, ascending CPUs within a node.
func (r *refMachine) pickFree(job, want int) []int {
	var free []int
	for cpu, o := range r.owner {
		if o == Free {
			free = append(free, cpu)
		}
	}
	if r.nodeSize > 1 {
		nodeOf := func(cpu int) int { return cpu / r.nodeSize }
		occupied := map[int]bool{}
		for _, cpu := range r.cpus[job] {
			occupied[nodeOf(cpu)] = true
		}
		freeOn := map[int]int{}
		for _, cpu := range free {
			freeOn[nodeOf(cpu)]++
		}
		sort.SliceStable(free, func(a, b int) bool {
			na, nb := nodeOf(free[a]), nodeOf(free[b])
			if na == nb {
				return free[a] < free[b]
			}
			if occupied[na] != occupied[nb] {
				return occupied[na]
			}
			if freeOn[na] != freeOn[nb] {
				return freeOn[na] > freeOn[nb]
			}
			return na < nb
		})
	}
	if len(free) > want {
		free = free[:want]
	}
	return free
}

func (r *refMachine) resize(t sim.Time, job, want int) {
	if want < 0 {
		want = 0
	}
	cur := r.cpus[job]
	if want < len(cur) {
		for _, cpu := range cur[want:] {
			r.owner[cpu] = Free
			r.assign(t, cpu, Free)
		}
		r.cpus[job] = cur[:want]
		return
	}
	for _, cpu := range r.pickFree(job, want-len(cur)) {
		tid := ThreadID{Job: job, Thread: len(cur)}
		if last, ok := r.lastCPU[tid]; ok && last != cpu {
			r.migTotal++
		}
		r.lastCPU[tid] = cpu
		r.owner[cpu] = job
		r.assign(t, cpu, job)
		cur = append(cur, cpu)
		r.cpus[job] = cur
	}
}

func (r *refMachine) release(t sim.Time, job int) {
	r.resize(t, job, 0)
	delete(r.cpus, job)
	r.forgetThreads(job)
}

func (r *refMachine) forgetThreads(job int) {
	for tid := range r.lastCPU {
		if tid.Job == job {
			delete(r.lastCPU, tid)
		}
	}
}

func (r *refMachine) placeQuantum(t sim.Time, placements []Placement) {
	seen := make([]bool, r.ncpu)
	for _, p := range placements {
		seen[p.CPU] = true
		if last, ok := r.lastCPU[p.Thread]; ok && last != p.CPU {
			r.migTotal++
		}
		r.lastCPU[p.Thread] = p.CPU
		if r.owner[p.CPU] != p.Thread.Job {
			r.owner[p.CPU] = p.Thread.Job
			r.assign(t, p.CPU, p.Thread.Job)
		}
	}
	for cpu := 0; cpu < r.ncpu; cpu++ {
		if !seen[cpu] && r.owner[cpu] != Free {
			r.owner[cpu] = Free
			r.assign(t, cpu, Free)
		}
	}
}

// compareState asserts the optimized machine and the reference agree on all
// observable state.
func compareState(t *testing.T, step int, m *Machine, ref *refMachine, maxJob, maxThreads int) {
	t.Helper()
	if m.FreeCPUs() != ref.free() {
		t.Fatalf("step %d: FreeCPUs = %d, reference %d", step, m.FreeCPUs(), ref.free())
	}
	if got := m.rec.Stats().Migrations; got != ref.migTotal {
		t.Fatalf("step %d: migrations = %d, reference %d", step, got, ref.migTotal)
	}
	for cpu := 0; cpu < ref.ncpu; cpu++ {
		if m.owner[cpu] != ref.owner[cpu] {
			t.Fatalf("step %d: owner of CPU %d = %d, reference %d", step, cpu, m.owner[cpu], ref.owner[cpu])
		}
	}
	for job := 0; job <= maxJob; job++ {
		want := ref.cpus[job]
		got := m.CPUsView(job)
		if len(got) != len(want) {
			t.Fatalf("step %d: job %d CPUs = %v, reference %v", step, job, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: job %d CPUs = %v, reference %v", step, job, got, want)
			}
		}
		if len(m.cpusOf(job)) != len(want) {
			t.Fatalf("step %d: job %d Allocated = %d, reference %d", step, job, len(m.cpusOf(job)), len(want))
		}
		for th := 0; th < maxThreads; th++ {
			tid := ThreadID{Job: job, Thread: th}
			gotCPU, gotOK := lastCPU(m, tid)
			wantCPU, wantOK := ref.lastCPU[tid]
			if gotOK != wantOK || (gotOK && gotCPU != wantCPU) {
				t.Fatalf("step %d: last CPU of %v = %d,%v, reference %d,%v",
					step, tid, gotCPU, gotOK, wantCPU, wantOK)
			}
		}
	}
}

// compareBursts asserts the recorder's RLE output equals the naive burst log
// (compared as multisets: closure order within one instant is unspecified).
func compareBursts(t *testing.T, rec *trace.Recorder, ref *refMachine) {
	t.Helper()
	got := append([]trace.Burst(nil), rec.Bursts()...)
	want := append([]trace.Burst(nil), ref.bursts...)
	less := func(s []trace.Burst) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := s[i], s[j]
			if a.CPU != b.CPU {
				return a.CPU < b.CPU
			}
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.Job < b.Job
		}
	}
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	if len(got) != len(want) {
		t.Fatalf("bursts: %d recorded, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("burst %d: recorded %+v, reference %+v", i, got[i], want[i])
		}
	}
	if rec.Stats().Migrations != ref.migTotal {
		t.Fatalf("migrations: recorded %d, reference %d", rec.Stats().Migrations, ref.migTotal)
	}
}

func TestFuzzSpaceSharingMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ncpu     int
		nodeSize int
		seed     int64
	}{
		{"flat8", 8, 1, 1},
		{"flat64", 64, 1, 2},
		{"flat70", 70, 1, 3}, // ncpu not a multiple of 64: exercises tail masks
		{"numa16x4", 16, 4, 4},
		{"numa64x8", 64, 8, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			rec := trace.NewRecorder(tc.ncpu)
			m := New(tc.ncpu, rec)
			if tc.nodeSize > 1 {
				m.SetNodeSize(tc.nodeSize)
			}
			ref := newRefMachine(tc.ncpu, tc.nodeSize)
			const maxJob = 11
			now := sim.Time(0)
			for step := 0; step < 600; step++ {
				now += sim.Time(1+rng.Intn(1000)) * sim.Millisecond
				job := rng.Intn(maxJob + 1)
				if rng.Intn(5) == 0 {
					m.Release(now, job)
					ref.release(now, job)
				} else {
					want := rng.Intn(tc.ncpu + 2)
					granted := m.Resize(now, job, want)
					ref.resize(now, job, want)
					if granted != len(ref.cpus[job]) {
						t.Fatalf("step %d: Resize granted %d, reference %d", step, granted, len(ref.cpus[job]))
					}
				}
				compareState(t, step, m, ref, maxJob, tc.ncpu+1)
			}
			now += sim.Second
			rec.Close(now)
			ref.close(now)
			compareBursts(t, rec, ref)
		})
	}
}

func TestFuzzTimeSharingMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		ncpu int
		seed int64
	}{
		{"flat8", 8, 10},
		{"flat64", 64, 11},
		{"flat70", 70, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			rec := trace.NewRecorder(tc.ncpu)
			m := New(tc.ncpu, rec)
			ref := newRefMachine(tc.ncpu, 1)
			const maxJob = 11
			maxThreads := tc.ncpu + 1
			now := sim.Time(0)
			for step := 0; step < 600; step++ {
				now += sim.Time(1+rng.Intn(200)) * sim.Millisecond
				if rng.Intn(8) == 0 {
					job := rng.Intn(maxJob + 1)
					m.ForgetThreads(job)
					ref.forgetThreads(job)
					compareState(t, step, m, ref, maxJob, maxThreads)
					continue
				}
				// A random partial placement: some CPUs idle, each used CPU
				// gets a random (job, thread) pair, threads unique per job.
				var placements []Placement
				usedThread := map[ThreadID]bool{}
				for cpu := 0; cpu < tc.ncpu; cpu++ {
					if rng.Intn(3) == 0 {
						continue
					}
					tid := ThreadID{Job: rng.Intn(maxJob + 1), Thread: rng.Intn(maxThreads)}
					if usedThread[tid] {
						continue
					}
					usedThread[tid] = true
					placements = append(placements, Placement{CPU: cpu, Thread: tid})
				}
				// Shuffle: PlaceQuantum must not depend on placement order
				// beyond the documented per-CPU uniqueness.
				rng.Shuffle(len(placements), func(i, j int) {
					placements[i], placements[j] = placements[j], placements[i]
				})
				m.PlaceQuantum(now, placements)
				ref.placeQuantum(now, placements)
				compareState(t, step, m, ref, maxJob, maxThreads)
			}
			now += sim.Second
			rec.Close(now)
			ref.close(now)
			compareBursts(t, rec, ref)
		})
	}
}

// BenchmarkReleaseManyJobs is the regression guard for the per-job cost of
// Release/ForgetThreads: a stream of short-lived jobs each placing threads
// and exiting. The former map[ThreadID]int affinity store made every release
// scan all threads ever seen; the per-job tables make it O(threads of that
// job) with pooled storage.
func BenchmarkReleaseManyJobs(b *testing.B) {
	const ncpu = 64
	m := New(ncpu, nil)
	placements := make([]Placement, ncpu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := i
		for cpu := 0; cpu < ncpu; cpu++ {
			placements[cpu] = Placement{CPU: cpu, Thread: ThreadID{Job: job, Thread: cpu}}
		}
		m.PlaceQuantum(sim.Time(i)*sim.Millisecond, placements)
		m.ForgetThreads(job)
	}
}

// BenchmarkResizeReleaseManyJobs is the space-sharing variant: jobs
// repeatedly acquire partitions and release them.
func BenchmarkResizeReleaseManyJobs(b *testing.B) {
	const ncpu = 64
	m := New(ncpu, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := i
		m.Resize(sim.Time(i)*sim.Millisecond, job, 16)
		m.Release(sim.Time(i)*sim.Millisecond+sim.Microsecond, job)
	}
}
