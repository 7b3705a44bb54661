package policy

import (
	"slices"
	"testing"
	"testing/quick"

	"pdpasim/internal/sched"
)

func views(reqs ...int) []*sched.JobView {
	out := make([]*sched.JobView, len(reqs))
	for i, r := range reqs {
		out[i] = &sched.JobView{ID: sched.JobID(i), Request: r}
	}
	return out
}

func TestEquipartitionedEvenSplit(t *testing.T) {
	got := Equipartitioned(nil, 60, views(30, 30, 30, 30))
	for i, n := range got {
		if n != 15 {
			t.Fatalf("job %d got %d, want 15", i, n)
		}
	}
}

func TestEquipartitionedCapsAtRequest(t *testing.T) {
	got := Equipartitioned(nil, 60, views(2, 30, 30))
	if got[0] != 2 {
		t.Fatalf("small job got %d, want its request 2", got[0])
	}
	if got[1] != 29 || got[2] != 29 {
		t.Fatalf("big jobs got %d,%d, want 29 each", got[1], got[2])
	}
}

func TestEquipartitionedLeftoverToEarliest(t *testing.T) {
	got := Equipartitioned(nil, 10, views(30, 30, 30))
	if got[0] != 4 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("split = %v", got)
	}
}

func TestEquipartitionedMoreJobsThanCPUs(t *testing.T) {
	got := Equipartitioned(nil, 2, views(5, 5, 5))
	total := got[0] + got[1] + got[2]
	if total != 2 {
		t.Fatalf("allocated %d of 2", total)
	}
	if got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("split = %v, want earliest served first", got)
	}
}

func TestEquipartitionedEmpty(t *testing.T) {
	if got := Equipartitioned(nil, 60, nil); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestEquipartitionPolicyReallocOnlyOnChange(t *testing.T) {
	e := new(Equipartition)
	e.Reset()
	jobs := views(30, 30)
	v := sched.View{NCPU: 60, Jobs: jobs}
	e.JobStarted(0, jobs[0])
	e.JobStarted(0, jobs[1])
	p1 := e.Plan(v)
	// A performance report must not change the plan object (no realloc).
	e.ReportPerformance(0, jobs[0], sched.Report{Procs: 30, Speedup: 20, Efficiency: 0.66})
	p2 := e.Plan(v)
	if !slices.Equal(p1, p2) {
		t.Fatal("plan changed without arrival/completion")
	}
	// Completion triggers recompute.
	e.JobFinished(0, jobs[1].ID)
	v.Jobs = jobs[:1]
	p3 := e.Plan(v)
	if p3[0] != 30 {
		t.Fatalf("after completion job0 got %d, want 30", p3[0])
	}
}

func TestEquipartitionName(t *testing.T) {
	if new(Equipartition).Name() != "Equip" {
		t.Fatal("name")
	}
	if !new(Equipartition).WantsNewJob(sched.View{}) {
		t.Fatal("fixed-MPL policy must always allow admission")
	}
}

// Property: Equipartitioned never over-allocates, never exceeds requests,
// and is fair (allocations differ by at most 1 among jobs with equal,
// unsatisfied requests).
func TestEquipartitionedProperties(t *testing.T) {
	f := func(ncpuRaw uint8, reqsRaw []uint8) bool {
		ncpu := int(ncpuRaw)%100 + 1
		if len(reqsRaw) == 0 {
			return true
		}
		if len(reqsRaw) > 20 {
			reqsRaw = reqsRaw[:20]
		}
		reqs := make([]int, len(reqsRaw))
		for i, r := range reqsRaw {
			reqs[i] = int(r)%40 + 1
		}
		jobs := views(reqs...)
		got := Equipartitioned(nil, ncpu, jobs)
		total := 0
		for i, j := range jobs {
			n := got[i]
			if n < 0 || n > j.Request {
				return false
			}
			total += n
		}
		if total > ncpu {
			return false
		}
		// Fairness among unsatisfied equals.
		for ia, a := range jobs {
			for ib, b := range jobs {
				if a.Request == b.Request && got[ia] < a.Request && got[ib] < b.Request {
					d := got[ia] - got[ib]
					if d < -1 || d > 1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualEfficiencyFitsAlpha(t *testing.T) {
	e := new(EqualEfficiency)
	e.Reset()
	j := &sched.JobView{ID: 1, Request: 30}
	e.JobStarted(0, j)
	// Perfect scaling: alpha 0.
	j.Reports = append(j.Reports, sched.Report{Procs: 10, Speedup: 10})
	e.ReportPerformance(0, j, j.Reports[len(j.Reports)-1])
	if a := e.alpha[1]; a != 0 {
		t.Fatalf("alpha = %v, want 0", a)
	}
	// Amdahl-ish: S(10)=5 => alpha = (10/5-1)/9 = 1/9.
	j.Reports = append(j.Reports, sched.Report{Procs: 10, Speedup: 5})
	e.ReportPerformance(0, j, j.Reports[len(j.Reports)-1])
	if a := e.alpha[1]; a < 0.05 || a > 0.12 {
		t.Fatalf("alpha = %v", a)
	}
	// Superlinear: S(10)=15 => negative alpha.
	j.Reports = []sched.Report{{Procs: 10, Speedup: 15}}
	e.ReportPerformance(0, j, j.Reports[0])
	if a := e.alpha[1]; a >= 0 {
		t.Fatalf("alpha = %v, want negative for superlinear", a)
	}
}

func TestEqualEfficiencyFavorsEfficientJob(t *testing.T) {
	e := new(EqualEfficiency)
	e.Reset()
	good := &sched.JobView{ID: 1, Request: 30}
	bad := &sched.JobView{ID: 2, Request: 30}
	e.JobStarted(0, good)
	e.JobStarted(0, bad)
	good.Reports = []sched.Report{{Procs: 8, Speedup: 7.8}} // alpha ~0.004
	bad.Reports = []sched.Report{{Procs: 8, Speedup: 2}}    // alpha ~0.43
	e.ReportPerformance(0, good, good.Reports[0])
	e.ReportPerformance(0, bad, bad.Reports[0])
	plan := e.Plan(sched.View{NCPU: 40, Jobs: []*sched.JobView{good, bad}})
	if plan[0] <= plan[1] {
		t.Fatalf("plan = %v, efficient job should dominate", plan)
	}
	if plan[0]+plan[1] != 40 {
		t.Fatalf("plan total = %d, want full machine use", plan[0]+plan[1])
	}
}

func TestEqualEfficiencySuperlinearCapture(t *testing.T) {
	// A superlinear job (negative alpha) must capture nearly everything up
	// to its request — the pathology the paper reports (2..28 CPUs for
	// identical swims).
	e := new(EqualEfficiency)
	e.Reset()
	super := &sched.JobView{ID: 1, Request: 28}
	normal := &sched.JobView{ID: 2, Request: 30}
	e.JobStarted(0, super)
	e.JobStarted(0, normal)
	super.Reports = []sched.Report{{Procs: 12, Speedup: 17}}
	normal.Reports = []sched.Report{{Procs: 12, Speedup: 10}}
	e.ReportPerformance(0, super, super.Reports[0])
	e.ReportPerformance(0, normal, normal.Reports[0])
	plan := e.Plan(sched.View{NCPU: 30, Jobs: []*sched.JobView{super, normal}})
	if plan[0] != 28 {
		t.Fatalf("superlinear job got %d, want its full request 28", plan[0])
	}
	if plan[1] != 2 {
		t.Fatalf("normal job got %d, want leftovers 2", plan[1])
	}
}

func TestEqualEfficiencyRunToCompletionMinimum(t *testing.T) {
	e := new(EqualEfficiency)
	e.Reset()
	jobs := views(30, 30, 30)
	for _, j := range jobs {
		e.JobStarted(0, j)
	}
	plan := e.Plan(sched.View{NCPU: 2, Jobs: jobs})
	one := 0
	for _, n := range plan {
		if n == 1 {
			one++
		}
	}
	if one != 2 {
		t.Fatalf("plan = %v, want the 2 CPUs spread one per job", plan)
	}
}

func TestEqualEfficiencyUnknownJobOptimistic(t *testing.T) {
	e := new(EqualEfficiency)
	e.Reset()
	known := &sched.JobView{ID: 1, Request: 30}
	fresh := &sched.JobView{ID: 2, Request: 30}
	e.JobStarted(0, known)
	e.JobStarted(0, fresh)
	known.Reports = []sched.Report{{Procs: 10, Speedup: 4}} // poor
	e.ReportPerformance(0, known, known.Reports[0])
	plan := e.Plan(sched.View{NCPU: 30, Jobs: []*sched.JobView{known, fresh}})
	if plan[1] <= plan[0] {
		t.Fatalf("plan = %v, unmeasured job should win on optimism", plan)
	}
}

func TestEqualEfficiencyCleanup(t *testing.T) {
	e := new(EqualEfficiency)
	e.Reset()
	j := &sched.JobView{ID: 1, Request: 4}
	e.JobStarted(0, j)
	e.JobFinished(0, 1)
	if e.alpha[1] != 0 {
		t.Fatal("alpha retained after finish")
	}
	if e.Name() != "Equal_eff" {
		t.Fatal("name")
	}
}

func TestEqualEfficiencyIgnoresUnusableSamples(t *testing.T) {
	e := new(EqualEfficiency)
	e.Reset()
	j := &sched.JobView{ID: 1, Request: 4}
	e.JobStarted(0, j)
	j.Reports = []sched.Report{{Procs: 1, Speedup: 1}, {Procs: 0, Speedup: 0}}
	e.ReportPerformance(0, j, j.Reports[1])
	if e.alpha[1] != 0 {
		t.Fatalf("alpha = %v from unusable samples", e.alpha[1])
	}
}
