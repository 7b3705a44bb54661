package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"pdpasim/internal/sim"
)

func TestBurstAccounting(t *testing.T) {
	r := NewRecorder(2)
	r.Assign(0, 0, 1)
	r.Assign(10*sim.Second, 0, 2) // closes 10s burst of job 1
	r.Assign(15*sim.Second, 0, NoJob)
	r.Assign(0, 1, 1)
	r.Close(20 * sim.Second)

	bursts := r.Bursts()
	if len(bursts) != 3 {
		t.Fatalf("bursts = %d, want 3", len(bursts))
	}
	s := r.Stats()
	// Total busy: 10 + 5 + 20 = 35s over 3 bursts.
	if s.TotalBusy != 35*sim.Second {
		t.Fatalf("TotalBusy = %v", s.TotalBusy)
	}
	if s.AvgBurst != 35*sim.Second/3 {
		t.Fatalf("AvgBurst = %v", s.AvgBurst)
	}
	if s.AvgBurstsPerCPU != 1.5 {
		t.Fatalf("AvgBurstsPerCPU = %v", s.AvgBurstsPerCPU)
	}
	if got := s.Utilization; got < 0.87 || got > 0.88 {
		t.Fatalf("Utilization = %v, want 35/40", got)
	}
}

func TestAssignSameJobContinuesBurst(t *testing.T) {
	r := NewRecorder(1)
	r.Assign(0, 0, 5)
	r.Assign(sim.Second, 0, 5) // no-op
	r.Close(2 * sim.Second)
	if len(r.Bursts()) != 1 {
		t.Fatalf("bursts = %d, want 1 continuous burst", len(r.Bursts()))
	}
	if r.Bursts()[0].Duration() != 2*sim.Second {
		t.Fatalf("duration = %v", r.Bursts()[0].Duration())
	}
}

func TestZeroLengthBurstDropped(t *testing.T) {
	r := NewRecorder(1)
	r.Assign(sim.Second, 0, 1)
	r.Assign(sim.Second, 0, 2)
	r.Close(2 * sim.Second)
	if len(r.Bursts()) != 1 {
		t.Fatalf("bursts = %v", r.Bursts())
	}
	if r.Bursts()[0].Job != 2 {
		t.Fatalf("surviving burst job = %d", r.Bursts()[0].Job)
	}
}

func TestAssignOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRecorder(2).Assign(0, 2, 1)
}

func TestMigrations(t *testing.T) {
	r := NewRecorder(1)
	for i := 0; i < 7; i++ {
		r.Migration()
	}
	if got := r.Stats().Migrations; got != 7 {
		t.Fatalf("Migrations = %d", got)
	}
}

func TestMPLTimelineCollapsesDuplicates(t *testing.T) {
	r := NewRecorder(1)
	r.ObserveMPL(0, 1)
	r.ObserveMPL(sim.Second, 1)
	r.ObserveMPL(2*sim.Second, 3)
	tl := r.MPLTimeline()
	if len(tl) != 2 || tl[1].Value != 3 {
		t.Fatalf("timeline = %v", tl)
	}
}

func TestAllocationHistory(t *testing.T) {
	r := NewRecorder(1)
	r.ObserveAllocation(0, 9, 4)
	r.ObserveAllocation(sim.Second, 9, 4)
	r.ObserveAllocation(2*sim.Second, 9, 8)
	h := r.AllocationHistory(9)
	if len(h) != 2 || h[1].Value != 8 {
		t.Fatalf("history = %v", h)
	}
	if r.AllocationHistory(404) != nil {
		t.Fatal("unknown job should have nil history")
	}
}

func TestCloseIdempotent(t *testing.T) {
	r := NewRecorder(1)
	r.Assign(0, 0, 1)
	r.Close(sim.Second)
	r.Close(2 * sim.Second)
	if r.end != sim.Second {
		t.Fatalf("end = %v", r.end)
	}
	if len(r.Bursts()) != 1 {
		t.Fatalf("bursts = %d", len(r.Bursts()))
	}
}

func TestKeepBurstsFalseStillCounts(t *testing.T) {
	r := NewRecorder(1)
	r.KeepBursts = false
	r.Assign(0, 0, 1)
	r.Close(10 * sim.Second)
	if len(r.Bursts()) != 0 {
		t.Fatal("bursts stored despite KeepBursts=false")
	}
	s := r.Stats()
	if s.TotalBusy != 10*sim.Second || s.AvgBurstsPerCPU != 1 {
		t.Fatalf("stats without stored bursts: %+v", s)
	}
}

func TestRenderShape(t *testing.T) {
	r := NewRecorder(3)
	r.Assign(0, 0, 0)
	r.Assign(0, 1, 1)
	// cpu2 idle throughout.
	r.Assign(5*sim.Second, 0, 1)
	r.Close(10 * sim.Second)
	out := r.Render(RenderOptions{Width: 10})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 cpus
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "AAAAABBBBB") {
		t.Fatalf("cpu0 row = %q", lines[1])
	}
	if !strings.Contains(lines[2], "BBBBBBBBBB") {
		t.Fatalf("cpu1 row = %q", lines[2])
	}
	if !strings.Contains(lines[3], "..........") {
		t.Fatalf("cpu2 row = %q", lines[3])
	}
}

func TestRenderEmptyWindow(t *testing.T) {
	r := NewRecorder(1)
	r.Close(0)
	if got := r.Render(RenderOptions{}); got != "" {
		t.Fatalf("empty render = %q", got)
	}
}

func TestRenderCustomLabel(t *testing.T) {
	r := NewRecorder(1)
	r.Assign(0, 0, 3)
	r.Close(sim.Second)
	out := r.Render(RenderOptions{Width: 4, Label: func(int) rune { return 'x' }})
	if !strings.Contains(out, "xxxx") {
		t.Fatalf("custom label missing: %q", out)
	}
}

func TestJobsSeen(t *testing.T) {
	r := NewRecorder(2)
	r.Assign(0, 0, 5)
	r.Assign(0, 1, 2)
	r.Assign(sim.Second, 0, 2)
	r.Close(2 * sim.Second)
	got := r.JobsSeen()
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("JobsSeen = %v", got)
	}
}

// Property: for arbitrary assignment sequences, total busy time never
// exceeds ncpu × span and burst intervals are well-formed.
func TestBurstInvariants(t *testing.T) {
	f := func(steps []uint8) bool {
		const ncpu = 4
		r := NewRecorder(ncpu)
		var now sim.Time
		for _, s := range steps {
			now += sim.Time(s%50) * sim.Millisecond
			cpu := int(s) % ncpu
			job := int(s/4)%3 - 1 // -1 (idle), 0, 1
			r.Assign(now, cpu, job)
		}
		now += sim.Second
		r.Close(now)
		var busy sim.Time
		for _, b := range r.Bursts() {
			if b.End <= b.Start || b.Job == NoJob {
				return false
			}
			busy += b.Duration()
		}
		return busy <= sim.Time(ncpu)*now
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
