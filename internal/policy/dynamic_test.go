package policy

import (
	"testing"

	"pdpasim/internal/sched"
)

func TestDynamicMarginalWaterfill(t *testing.T) {
	d := NewDynamic()
	scalable := &sched.JobView{ID: 1, Request: 30}
	flat := &sched.JobView{ID: 2, Request: 30}
	d.JobStarted(0, scalable)
	d.JobStarted(0, flat)
	scalable.Reports = []sched.Report{{Procs: 8, Speedup: 7.8}}
	flat.Reports = []sched.Report{{Procs: 8, Speedup: 1.5}}
	d.ReportPerformance(0, scalable, scalable.Reports[0])
	d.ReportPerformance(0, flat, flat.Reports[0])

	plan := d.Plan(sched.View{NCPU: 20, Jobs: []*sched.JobView{scalable, flat}})
	// Marginal speedup of the flat job is near zero: it keeps the
	// run-to-completion single processor, the scalable job takes the rest.
	if plan[1] > 3 {
		t.Fatalf("flat job got %d processors", plan[1])
	}
	if plan[0] < 17 {
		t.Fatalf("scalable job got %d processors", plan[0])
	}
	if plan[0]+plan[1] != 20 {
		t.Fatalf("plan wastes processors: %v", plan)
	}
}

func TestDynamicUnmeasuredOptimistic(t *testing.T) {
	d := NewDynamic()
	j := &sched.JobView{ID: 1, Request: 16}
	d.JobStarted(0, j)
	plan := d.Plan(sched.View{NCPU: 60, Jobs: []*sched.JobView{j}})
	if plan[0] != 16 {
		t.Fatalf("fresh job got %d, want its request (optimistic linear fit)", plan[0])
	}
}

func TestDynamicRunToCompletionMinimum(t *testing.T) {
	d := NewDynamic()
	jobs := views(30, 30, 30)
	for _, j := range jobs {
		d.JobStarted(0, j)
	}
	plan := d.Plan(sched.View{NCPU: 2, Jobs: jobs})
	granted := 0
	for _, n := range plan {
		granted += n
	}
	if granted != 2 {
		t.Fatalf("plan = %v", plan)
	}
}

func TestDynamicCleanup(t *testing.T) {
	d := NewDynamic()
	j := &sched.JobView{ID: 7, Request: 4}
	d.JobStarted(0, j)
	d.JobFinished(0, 7)
	if _, ok := d.alpha[7]; ok {
		t.Fatal("alpha retained")
	}
	if d.Name() != "Dynamic" || !d.WantsNewJob(sched.View{}) {
		t.Fatal("identity")
	}
}

func TestDynamicIgnoresBadSamples(t *testing.T) {
	d := NewDynamic()
	j := &sched.JobView{ID: 1, Request: 8}
	d.JobStarted(0, j)
	j.Reports = []sched.Report{{Procs: 1, Speedup: 1}}
	d.ReportPerformance(0, j, j.Reports[0])
	if d.alpha[1] != 0 {
		t.Fatalf("alpha = %v", d.alpha[1])
	}
}
