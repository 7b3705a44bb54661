package machine

import (
	"slices"
	"testing"
	"testing/quick"

	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

func TestResizeGrowShrink(t *testing.T) {
	m := New(8, nil)
	if got := m.Resize(0, 1, 4); got != 4 {
		t.Fatalf("grant = %d", got)
	}
	if m.FreeCPUs() != 4 {
		t.Fatalf("free = %d", m.FreeCPUs())
	}
	if got := m.Resize(0, 2, 10); got != 4 {
		t.Fatalf("clamped grant = %d, want 4", got)
	}
	if m.FreeCPUs() != 0 {
		t.Fatalf("free = %d", m.FreeCPUs())
	}
	if got := m.Resize(sim.Second, 1, 2); got != 2 {
		t.Fatalf("shrink grant = %d", got)
	}
	if m.FreeCPUs() != 2 {
		t.Fatalf("free after shrink = %d", m.FreeCPUs())
	}
}

func TestResizeAffinityKeepsCPUs(t *testing.T) {
	m := New(8, nil)
	m.Resize(0, 1, 4)
	before := slices.Clone(m.cpusOf(1))
	m.Resize(sim.Second, 1, 2)
	m.Resize(2*sim.Second, 1, 4)
	after := slices.Clone(m.cpusOf(1))
	// The first two CPUs must be unchanged (kept across the shrink).
	if after[0] != before[0] || after[1] != before[1] {
		t.Fatalf("affinity lost: before=%v after=%v", before, after)
	}
}

func TestResizeMigrationCounting(t *testing.T) {
	rec := trace.NewRecorder(4)
	m := New(4, rec)
	m.Resize(0, 1, 2) // threads 0,1 created — no migrations
	if rec.Stats().Migrations != 0 {
		t.Fatalf("creation counted as migration: %d", rec.Stats().Migrations)
	}
	m.Resize(sim.Second, 2, 2)   // job 2 on cpus 2,3
	m.Resize(2*sim.Second, 1, 1) // job 1 shrinks, cpu1 free
	m.Resize(3*sim.Second, 2, 3) // job 2 grows onto cpu1: thread 2 is new
	if rec.Stats().Migrations != 0 {
		t.Fatalf("new thread counted as migration: %d", rec.Stats().Migrations)
	}
	m.Resize(4*sim.Second, 2, 2) // job 2 back to 2: thread 2 suspended
	m.Resize(5*sim.Second, 1, 2) // job 1 regrows onto cpu1: thread 1 moved 1->1? cpu1 was its original
	// thread 1 of job 1 originally on cpu1, so regrowth onto cpu1 is not a move.
	if rec.Stats().Migrations != 0 {
		t.Fatalf("same-cpu regrowth counted as migration: %d", rec.Stats().Migrations)
	}
	m.Resize(6*sim.Second, 1, 1)
	m.Resize(7*sim.Second, 3, 1) // job 3 takes cpu1
	m.Resize(7500*sim.Millisecond, 2, 1)
	m.Resize(8*sim.Second, 1, 2) // job 1 thread 1 must land on freed cpu3 => migration
	if rec.Stats().Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", rec.Stats().Migrations)
	}
}

func TestReleaseFreesEverything(t *testing.T) {
	m := New(4, nil)
	m.Resize(0, 7, 3)
	m.Release(sim.Second, 7)
	if m.FreeCPUs() != 4 {
		t.Fatalf("free = %d", m.FreeCPUs())
	}
	if len(m.cpusOf(7)) != 0 {
		t.Fatalf("allocated = %d", len(m.cpusOf(7)))
	}
	if _, ok := lastCPU(m, ThreadID{Job: 7, Thread: 0}); ok {
		t.Fatal("thread memory not cleared on release")
	}
}

func TestJobsSorted(t *testing.T) {
	m := New(8, nil)
	m.Resize(0, 5, 1)
	m.Resize(0, 2, 1)
	m.Resize(0, 9, 1)
	jobs := jobsOf(m)
	if len(jobs) != 3 || jobs[0] != 2 || jobs[1] != 5 || jobs[2] != 9 {
		t.Fatalf("jobs = %v", jobs)
	}
}

func TestResizeNegativeWantClamps(t *testing.T) {
	m := New(2, nil)
	m.Resize(0, 1, 2)
	if got := m.Resize(sim.Second, 1, -3); got != 0 {
		t.Fatalf("negative want grant = %d", got)
	}
}

func TestNegativeJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(2, nil).Resize(0, -1, 1)
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []int{0, -1} {
		func() {
			defer func() { recover() }()
			New(bad, nil)
			t.Fatalf("New(%d) did not panic", bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched recorder did not panic")
		}
	}()
	New(4, trace.NewRecorder(8))
}

func TestPlaceQuantum(t *testing.T) {
	rec := trace.NewRecorder(3)
	m := New(3, rec)
	m.PlaceQuantum(0, []Placement{
		{CPU: 0, Thread: ThreadID{Job: 1, Thread: 0}},
		{CPU: 1, Thread: ThreadID{Job: 1, Thread: 1}},
		{CPU: 2, Thread: ThreadID{Job: 2, Thread: 0}},
	})
	if rec.Stats().Migrations != 0 {
		t.Fatalf("first placement migrations = %d", rec.Stats().Migrations)
	}
	// Swap two threads: two migrations.
	m.PlaceQuantum(100*sim.Millisecond, []Placement{
		{CPU: 1, Thread: ThreadID{Job: 1, Thread: 0}},
		{CPU: 0, Thread: ThreadID{Job: 1, Thread: 1}},
		{CPU: 2, Thread: ThreadID{Job: 2, Thread: 0}},
	})
	if rec.Stats().Migrations != 2 {
		t.Fatalf("migrations = %d, want 2", rec.Stats().Migrations)
	}
	// Unmentioned CPU goes idle.
	m.PlaceQuantum(200*sim.Millisecond, []Placement{
		{CPU: 0, Thread: ThreadID{Job: 1, Thread: 1}},
	})
	if m.owner[2] != Free || m.owner[1] != Free {
		t.Fatalf("owners = %d,%d, want free", m.owner[1], m.owner[2])
	}
}

func TestPlaceQuantumDoublePlacePanics(t *testing.T) {
	m := New(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.PlaceQuantum(0, []Placement{
		{CPU: 0, Thread: ThreadID{Job: 1, Thread: 0}},
		{CPU: 0, Thread: ThreadID{Job: 2, Thread: 0}},
	})
}

func TestPlaceQuantumOutOfRangePanics(t *testing.T) {
	m := New(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.PlaceQuantum(0, []Placement{{CPU: 5, Thread: ThreadID{}}})
}

// lastCPU returns the CPU tid last ran on and whether it has run.
func lastCPU(m *Machine, tid ThreadID) (int, bool) {
	table := m.LastCPUsView(tid.Job)
	if tid.Thread >= len(table) || table[tid.Thread] == noCPU {
		return 0, false
	}
	return int(table[tid.Thread]), true
}

func TestForgetThreads(t *testing.T) {
	m := New(2, nil)
	m.PlaceQuantum(0, []Placement{{CPU: 0, Thread: ThreadID{Job: 3, Thread: 0}}})
	m.ForgetThreads(3)
	if _, ok := lastCPU(m, ThreadID{Job: 3, Thread: 0}); ok {
		t.Fatal("thread memory survived ForgetThreads")
	}
}

// Property: ownership is always a partition — a CPU has at most one owner and
// job CPU lists are disjoint; free count + Σ allocated = ncpu.
func TestOwnershipPartitionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const ncpu = 16
		m := New(ncpu, nil)
		var now sim.Time
		for _, op := range ops {
			now += sim.Millisecond
			job := int(op) % 5
			want := int(op/5) % (ncpu + 4)
			m.Resize(now, job, want)
		}
		seen := map[int]int{} // cpu -> job
		total := 0
		for _, job := range jobsOf(m) {
			for i, cpu := range m.cpusOf(job) {
				if other, dup := seen[cpu]; dup {
					t.Logf("cpu %d owned by %d and %d", cpu, other, job)
					return false
				}
				seen[cpu] = job
				if m.owner[cpu] != job {
					return false
				}
				_ = i
				total++
			}
		}
		return total+m.FreeCPUs() == ncpu
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// jobsOf returns the ids of all jobs owning at least one CPU, sorted.
func jobsOf(m *Machine) []int {
	var out []int
	for j, cpus := range m.jobCPUs {
		if len(cpus) > 0 {
			out = append(out, j)
		}
	}
	return out
}
