package sched

import (
	"testing"

	"pdpasim/internal/sim"
)

func TestJobViewLastReport(t *testing.T) {
	j := &JobView{ID: 1}
	if j.LastReport() != nil || j.HasPerformance() {
		t.Fatal("fresh job should have no reports")
	}
	j.Reports = append(j.Reports, Report{Procs: 4}, Report{Procs: 8})
	if got := j.LastReport(); got == nil || got.Procs != 8 {
		t.Fatalf("LastReport = %+v", got)
	}
	if !j.HasPerformance() {
		t.Fatal("HasPerformance false with reports")
	}
}

func TestViewFreeCPUs(t *testing.T) {
	v := View{NCPU: 10, Jobs: []*JobView{{Allocated: 3}, {Allocated: 4}}}
	if got := v.FreeCPUs(); got != 3 {
		t.Fatalf("free = %d", got)
	}
	v.Jobs = append(v.Jobs, &JobView{Allocated: 99})
	if got := v.FreeCPUs(); got != 0 {
		t.Fatalf("oversubscribed free = %d, want 0", got)
	}
}

func TestReportFields(t *testing.T) {
	r := Report{At: sim.Second, Procs: 8, Speedup: 6, Efficiency: 0.75}
	if r.Efficiency != r.Speedup/float64(r.Procs) {
		t.Fatal("fixture inconsistent")
	}
}
