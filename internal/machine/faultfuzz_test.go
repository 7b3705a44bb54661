package machine

import (
	"math/rand"
	"testing"

	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

// checkPartition asserts the machine-level scheduling invariants directly,
// independent of the naive reference: every CPU has at most one owner, a
// job's Allocated count matches its CPU list, the Owner table agrees with
// the per-job lists, and allocated plus free CPUs always conserve the
// machine size.
func checkPartition(t *testing.T, step int, m *Machine, ncpu, maxJob int) {
	t.Helper()
	owner := make([]int, ncpu)
	for i := range owner {
		owner[i] = Free
	}
	allocated := 0
	for job := 0; job <= maxJob; job++ {
		cpus := m.CPUsView(job)
		if len(m.cpusOf(job)) != len(cpus) {
			t.Fatalf("step %d: job %d Allocated = %d but holds %d CPUs", step, job, len(m.cpusOf(job)), len(cpus))
		}
		allocated += len(cpus)
		for _, cpu := range cpus {
			if owner[cpu] != Free {
				t.Fatalf("step %d: CPU %d double-owned by jobs %d and %d", step, cpu, owner[cpu], job)
			}
			owner[cpu] = job
			if m.owner[cpu] != job {
				t.Fatalf("step %d: CPU %d in job %d's list but Owner says %d", step, cpu, job, m.owner[cpu])
			}
		}
	}
	if allocated+m.FreeCPUs() != ncpu {
		t.Fatalf("step %d: %d allocated + %d free ≠ %d CPUs", step, allocated, m.FreeCPUs(), ncpu)
	}
	for cpu := 0; cpu < ncpu; cpu++ {
		if owner[cpu] == Free && m.owner[cpu] != Free {
			t.Fatalf("step %d: CPU %d owned by %d but in no job's list", step, cpu, m.owner[cpu])
		}
	}
}

// TestFuzzInvariantsUnderRandomFaults extends the fuzz-vs-naive harness with
// randomized fault timing: jobs crash (single and in simultaneous bursts,
// including zero time elapsed since their last reallocation) and are reborn
// at the same instant. After every operation the optimized machine must
// still match the reference AND satisfy the partition/conservation
// invariants; the burst log must close cleanly.
func TestFuzzInvariantsUnderRandomFaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ncpu     int
		nodeSize int
		seed     int64
	}{
		{"flat8", 8, 1, 21},
		{"flat70", 70, 1, 22},
		{"numa32x8", 32, 8, 23},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			rec := trace.NewRecorder(tc.ncpu)
			m := New(tc.ncpu, rec)
			if tc.nodeSize > 1 {
				m.SetNodeSize(tc.nodeSize)
			}
			ref := newRefMachine(tc.ncpu, tc.nodeSize)
			const maxJob = 9
			now := sim.Time(0)
			for step := 0; step < 500; step++ {
				// Fault timing is part of the randomness: half the steps
				// advance the clock, half strike at the same instant as the
				// previous operation.
				if rng.Intn(2) == 0 {
					now += sim.Time(1+rng.Intn(500)) * sim.Millisecond
				}
				switch rng.Intn(6) {
				case 0: // single crash
					job := rng.Intn(maxJob + 1)
					m.Release(now, job)
					ref.release(now, job)
				case 1: // correlated failure: a burst of jobs dies at one instant
					for job := 0; job <= maxJob; job++ {
						if rng.Intn(3) == 0 {
							m.Release(now, job)
							ref.release(now, job)
						}
					}
				case 2: // crash immediately followed by rebirth at the same time
					job := rng.Intn(maxJob + 1)
					m.Release(now, job)
					ref.release(now, job)
					want := rng.Intn(tc.ncpu + 1)
					m.Resize(now, job, want)
					ref.resize(now, job, want)
				default: // ordinary reallocation traffic
					job := rng.Intn(maxJob + 1)
					want := rng.Intn(tc.ncpu + 2)
					m.Resize(now, job, want)
					ref.resize(now, job, want)
				}
				compareState(t, step, m, ref, maxJob, tc.ncpu+1)
				checkPartition(t, step, m, tc.ncpu, maxJob)
			}
			// Total shutdown: every job crashes; nothing may stay owned.
			now += sim.Second
			for job := 0; job <= maxJob; job++ {
				m.Release(now, job)
				ref.release(now, job)
			}
			checkPartition(t, 500, m, tc.ncpu, maxJob)
			if m.FreeCPUs() != tc.ncpu {
				t.Fatalf("after total shutdown %d CPUs free, want %d", m.FreeCPUs(), tc.ncpu)
			}
			rec.Close(now)
			ref.close(now)
			compareBursts(t, rec, ref)
		})
	}
}
