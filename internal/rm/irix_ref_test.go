package rm

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/machine"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/sched"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

// refIRIX is the IRIX placement algorithm in its plain form, kept as the
// oracle for IRIXManager.place: every quantum it rebuilds the global thread
// list from the running set, takes the rotation window one modulo per
// thread, looks up each thread's last CPU on its own, and finds each
// placement's job by binary search. It places on a machine of its own and
// computes, but does not push, each job's rate.
type refIRIX struct {
	mach    *machine.Machine
	cursor  int
	placed  []machine.Placement
	running []int
	rates   []float64
	over    bool // the latest placement was oversubscribed
}

func (r *refIRIX) place(now sim.Time, jobs []*irixJob) {
	r.placed, r.running, r.rates = nil, nil, nil
	if len(jobs) == 0 {
		r.mach.PlaceQuantum(now, nil)
		return
	}
	var threads []machine.ThreadID
	for _, j := range jobs {
		for i := 0; i < j.threads; i++ {
			threads = append(threads, machine.ThreadID{Job: int(j.id), Thread: i})
		}
	}
	ncpu := r.mach.NCPU()
	r.over = len(threads) > ncpu
	selected := threads
	if r.over {
		if r.cursor >= len(threads) {
			r.cursor %= len(threads)
		}
		selected = nil
		for i := 0; i < ncpu; i++ {
			selected = append(selected, threads[(r.cursor+i)%len(threads)])
		}
		r.cursor = (r.cursor + ncpu) % len(threads)
	}
	claimed := make([]bool, ncpu)
	var homeless []machine.ThreadID
	for _, tid := range selected {
		if last := r.mach.LastCPUsView(tid.Job); tid.Thread < len(last) {
			if cpu := int(last[tid.Thread]); cpu >= 0 && !claimed[cpu] {
				claimed[cpu] = true
				r.placed = append(r.placed, machine.Placement{CPU: cpu, Thread: tid})
				continue
			}
		}
		homeless = append(homeless, tid)
	}
	cpu := 0
	for _, tid := range homeless {
		for cpu < ncpu && claimed[cpu] {
			cpu++
		}
		if cpu >= ncpu {
			break
		}
		claimed[cpu] = true
		r.placed = append(r.placed, machine.Placement{CPU: cpu, Thread: tid})
	}
	r.mach.PlaceQuantum(now, r.placed)

	r.running = make([]int, len(jobs))
	for _, p := range r.placed {
		lo, hi := 0, len(jobs)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if int(jobs[mid].id) < p.Thread.Job {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		r.running[lo]++
	}
	r.rates = make([]float64, len(jobs))
	for idx, j := range jobs {
		k := r.running[idx]
		if k == 0 {
			continue
		}
		s := j.rt.Profile().SpeedupAt(j.rt.IterationsDone()).Speedup(j.threads)
		rate := s * float64(k) / float64(j.threads)
		if r.over {
			rate *= irixBusyWait
		}
		r.rates[idx] = rate
	}
}

// byCPU returns a copy of a placement sorted by CPU. A placement is a map
// from CPU to thread: a settled quantum repeats the previous one, whose
// homeless threads were listed last, where a fresh affinity pass would list
// every thread in thread order.
func byCPU(p []machine.Placement) []machine.Placement {
	out := slices.Clone(p)
	slices.SortFunc(out, func(a, b machine.Placement) int { return cmp.Compare(a.CPU, b.CPU) })
	return out
}

// TestIRIXPlaceMatchesReference drives IRIXManager quantum by quantum beside
// refIRIX through seeded random job starts, finishes and OMP_DYNAMIC
// thread-count changes. After every placement — a start's, a finish's or a
// quantum's — both must agree on the placement, each job's running-thread
// count and the rate pushed to its runtime, and their recorders on the
// migrations so far.
// The machine sizes straddle the 64-CPU word of the machine's bitsets, and
// each run must see both settled and oversubscribed quanta.
func TestIRIXPlaceMatchesReference(t *testing.T) {
	classes := []app.Class{app.Swim, app.BT, app.Hydro2D, app.Apsi}
	for _, tc := range []struct {
		ncpu int
		seed int64
	}{{8, 1}, {60, 2}, {64, 3}, {70, 4}} {
		t.Run(fmt.Sprintf("ncpu=%d", tc.ncpu), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			eng := sim.NewEngine()
			rec := trace.NewRecorder(tc.ncpu)
			mgr := new(IRIXManager)
			mgr.Reset(eng, machine.New(tc.ncpu, rec), rec)
			// The test owns the quantum clock: the manager never arms its
			// own tick, and each quantum's place runs from the loop below.
			mgr.tickScheduled = true
			refRec := trace.NewRecorder(tc.ncpu)
			ref := &refIRIX{mach: machine.New(tc.ncpu, refRec)}

			var completed []sched.JobID
			nextID := sched.JobID(0)
			var settled, over, quanta int
			check := func(step int, what string) {
				t.Helper()
				jobs := mgr.order
				if len(jobs) > 0 && !slices.Equal(byCPU(mgr.placed), byCPU(ref.placed)) {
					t.Fatalf("step %d (%s): placement\n%v\nreference\n%v", step, what, byCPU(mgr.placed), byCPU(ref.placed))
				}
				for id := 0; id < int(nextID); id++ {
					if got, want := mgr.mach.CPUsView(id), ref.mach.CPUsView(id); !slices.Equal(got, want) {
						t.Fatalf("step %d (%s): job %d on CPUs %v, reference %v", step, what, id, got, want)
					}
				}
				if got, want := rec.Stats().Migrations, refRec.Stats().Migrations; got != want {
					t.Fatalf("step %d (%s): %d migrations, reference %d", step, what, got, want)
				}
				for idx, j := range jobs {
					if got, want := int(mgr.running[idx]), ref.running[idx]; got != want || j.rt.Allocated() != want {
						t.Fatalf("step %d (%s): job %d runs %d threads (runtime told %d), reference %d",
							step, what, j.id, got, j.rt.Allocated(), want)
					}
					if got, want := j.rt.Rate(), ref.rates[idx]; !slices.Contains(completed, j.id) && got != want {
						t.Fatalf("step %d (%s): job %d rate %v, reference %v", step, what, j.id, got, want)
					}
				}
			}
			finish := func(step int, id sched.JobID) {
				mgr.JobFinished(id)
				ref.mach.ForgetThreads(int(id))
				ref.place(eng.Now(), mgr.order)
				check(step, "finish")
			}

			now := sim.Time(0)
			for step := 0; step < 600; step++ {
				now += irixQuantum
				eng.Run(now)
				for _, id := range completed {
					// A job finished at random earlier keeps its runtime
					// going; only a running job's completion counts.
					if indexByID(mgr.order, id) >= 0 {
						finish(step, id)
					}
				}
				completed = completed[:0]
				if n := len(mgr.order); n > 0 && rng.Intn(12) == 0 {
					finish(step, mgr.order[rng.Intn(n)].id)
				}
				if len(mgr.order) < 6 && rng.Intn(6) == 0 {
					id := nextID
					nextID++
					prof := app.ProfileFor(classes[rng.Intn(len(classes))])
					rt := nthlib.New(eng, prof, 1+rng.Intn(tc.ncpu/2), nil, nthlib.Hooks{
						OnDone: func() { completed = append(completed, id) },
					})
					mgr.StartJob(id, rt)
					ref.place(eng.Now(), mgr.order)
					check(step, "start")
				}
				if rng.Intn(4) == 0 {
					mgr.adjustThreads()
				}
				if mgr.settled && !mgr.stale {
					settled++
				}
				mgr.place()
				ref.place(eng.Now(), mgr.order)
				check(step, "quantum")
				quanta++
				if ref.over {
					over++
				}
			}
			if settled == 0 || over == 0 {
				t.Fatalf("%d quanta: %d settled, %d oversubscribed; want both kinds", quanta, settled, over)
			}
			rec.Close(now)
			refRec.Close(now)
			if got, want := rec.Bursts(), refRec.Bursts(); !slices.Equal(got, want) || rec.Stats().Migrations != refRec.Stats().Migrations {
				t.Fatalf("recorded %d bursts and %d migrations, reference %d and %d",
					len(got), rec.Stats().Migrations, len(want), refRec.Stats().Migrations)
			}
			t.Logf("%d quanta: %d settled, %d oversubscribed", quanta, settled, over)
		})
	}
}
