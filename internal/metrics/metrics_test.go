package metrics

import (
	"math"
	"strings"
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/sim"
	"pdpasim/internal/trace"
)

func mkResult() *RunResult {
	return &RunResult{
		Policy: "PDPA", Workload: "w1", Load: 0.8, MPL: 4, NCPU: 60,
		Jobs: []JobResult{
			{ID: 0, Class: app.Swim, Submit: 0, Start: 10 * sim.Second, End: 20 * sim.Second, CPUSeconds: 100},
			{ID: 1, Class: app.Swim, Submit: 5 * sim.Second, Start: 15 * sim.Second, End: 35 * sim.Second, CPUSeconds: 300},
			{ID: 2, Class: app.BT, Submit: 0, Start: 0, End: 100 * sim.Second, CPUSeconds: 2000},
		},
		Makespan: 100 * sim.Second,
	}
}

func TestJobResultTimes(t *testing.T) {
	j := JobResult{Submit: sim.Second, Start: 3 * sim.Second, End: 10 * sim.Second}
	if j.Response() != 9*sim.Second {
		t.Fatalf("response = %v", j.Response())
	}
	if j.Execution() != 7*sim.Second {
		t.Fatalf("execution = %v", j.Execution())
	}
}

func TestByClassAverages(t *testing.T) {
	r := mkResult()
	resp := r.ResponseByClass()
	// swim: (20-0)=20 and (35-5)=30 => mean 25.
	if math.Abs(resp[app.Swim]-25) > 1e-9 {
		t.Fatalf("swim response = %v", resp[app.Swim])
	}
	if math.Abs(resp[app.BT]-100) > 1e-9 {
		t.Fatalf("bt response = %v", resp[app.BT])
	}
	exec := r.ExecutionByClass()
	if math.Abs(exec[app.Swim]-15) > 1e-9 {
		t.Fatalf("swim exec = %v", exec[app.Swim])
	}
	if got := r.CPUSecondsTotal(); got != 2400 {
		t.Fatalf("cpu total = %v", got)
	}
}

func TestClassesCanonicalOrder(t *testing.T) {
	r := mkResult()
	cs := r.Classes()
	if len(cs) != 2 || cs[0] != app.Swim || cs[1] != app.BT {
		t.Fatalf("classes = %v", cs)
	}
}

func TestMinMaxAllocByClass(t *testing.T) {
	r := &RunResult{Jobs: []JobResult{
		{Class: app.Swim, AvgAlloc: 2},
		{Class: app.Swim, AvgAlloc: 28},
		{Class: app.BT, AvgAlloc: 15},
	}}
	lo, hi := r.MinMaxAllocByClass(app.Swim)
	if lo != 2 || hi != 28 {
		t.Fatalf("lo=%v hi=%v", lo, hi)
	}
	lo, hi = r.MinMaxAllocByClass(app.Apsi)
	if lo != 0 || hi != 0 {
		t.Fatalf("absent class lo=%v hi=%v", lo, hi)
	}
}

func TestStringRendering(t *testing.T) {
	s := mkResult().String()
	for _, want := range []string{"PDPA", "w1", "swim", "bt.A", "resp="} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %q", want, s)
		}
	}
}

func TestIntegrateAllocation(t *testing.T) {
	hist := []trace.TimePoint{
		{At: 0, Value: 4},
		{At: 10 * sim.Second, Value: 8},
		{At: 20 * sim.Second, Value: 0},
	}
	// 4×10 + 8×10 + 0×10 = 120 cpu-seconds.
	if got := IntegrateAllocation(hist, 30*sim.Second); got != 120 {
		t.Fatalf("integral = %v", got)
	}
	if got := IntegrateAllocation(nil, 30*sim.Second); got != 0 {
		t.Fatalf("empty integral = %v", got)
	}
	// End before the last point: the truncated segment contributes nothing
	// negative.
	if got := IntegrateAllocation(hist, 5*sim.Second); got != 20 {
		t.Fatalf("truncated integral = %v", got)
	}
}

func TestTimeWeightedMPL(t *testing.T) {
	tl := []trace.TimePoint{
		{At: 0, Value: 2},
		{At: 10 * sim.Second, Value: 4},
	}
	// 2 for 10s, 4 for 10s => 3.
	if got := TimeWeightedMPL(tl, 20*sim.Second); got != 3 {
		t.Fatalf("avg MPL = %v", got)
	}
	if got := TimeWeightedMPL(nil, 20*sim.Second); got != 0 {
		t.Fatalf("empty avg MPL = %v", got)
	}
}

func TestSortJobs(t *testing.T) {
	r := &RunResult{Jobs: []JobResult{{ID: 2}, {ID: 0}, {ID: 1}}}
	r.SortJobs()
	for i, j := range r.Jobs {
		if j.ID != i {
			t.Fatalf("order broken: %v", r.Jobs)
		}
	}
}
