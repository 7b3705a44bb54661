package memory

import (
	"math"
	"testing"

	"pdpasim/internal/sim"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		nodes int
		pen   float64
		rate  float64
	}{
		{0, 1.5, 0.1},
		{4, 0.9, 0.1},
		{4, 1.5, 0},
		{4, 1.5, 1.5},
	}
	for i, c := range cases {
		if _, err := New(c.nodes, c.pen, c.rate); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(4, 1.5, 0.1); err != nil {
		t.Fatal(err)
	}
}

func TestPerfectLocalityAtStart(t *testing.T) {
	m := mustNew(4, 2.0, 0.1)
	m.JobStarted(0, 1, []float64{1, 0, 0, 0})
	// First-touch: pages where the job runs => locality 1.
	if got := localityOf(m, 1, []float64{1, 0, 0, 0}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("locality = %v, want 1", got)
	}
}

func TestRelocationHurtsThenHeals(t *testing.T) {
	m := mustNew(4, 2.0, 0.2)
	m.JobStarted(0, 1, []float64{1, 0, 0, 0})
	// The job moves entirely to node 1: all pages remote.
	away := []float64{0, 1, 0, 0}
	got := m.Advance(0, 1, away)
	if math.Abs(got-0.5) > 1e-9 { // fully remote at penalty 2 => 0.5
		t.Fatalf("post-move locality = %v, want 0.5", got)
	}
	// The migration daemon heals placement over time.
	prev := got
	for i := 1; i <= 30; i++ {
		cur := m.Advance(sim.Time(i)*sim.Second, 1, away)
		if cur+1e-12 < prev {
			t.Fatalf("locality regressed at %ds: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
	if prev < 0.99 {
		t.Fatalf("locality after 30s = %v, want ~1", prev)
	}
}

func TestStableScheduleKeepsLocality(t *testing.T) {
	m := mustNew(4, 1.5, 0.1)
	share := []float64{0.5, 0.5, 0, 0}
	m.JobStarted(0, 1, share)
	for i := 1; i <= 10; i++ {
		if got := m.Advance(sim.Time(i)*sim.Second, 1, share); math.Abs(got-1) > 1e-9 {
			t.Fatalf("stable job lost locality: %v", got)
		}
	}
}

func TestChurnKeepsLocalityLow(t *testing.T) {
	// A job bounced between nodes every second never converges — the
	// instability cost of Section 5.1.1.
	m := mustNew(2, 2.0, 0.1)
	m.JobStarted(0, 1, []float64{1, 0})
	var minLoc float64 = 1
	for i := 1; i <= 20; i++ {
		share := []float64{1, 0}
		if i%2 == 0 {
			share = []float64{0, 1}
		}
		loc := m.Advance(sim.Time(i)*sim.Second, 1, share)
		if loc < minLoc {
			minLoc = loc
		}
	}
	if minLoc > 0.8 {
		t.Fatalf("churning job kept locality %v, want it hurt", minLoc)
	}
}

func TestUnknownJobNeutral(t *testing.T) {
	m := mustNew(2, 2.0, 0.1)
	if m.Advance(sim.Second, 42, []float64{1, 0}) != 1 {
		t.Fatal("unknown job should run at full speed")
	}
	if localityOf(m, 42, nil) != 1 {
		t.Fatal("unknown job locality should be 1")
	}
}

func TestJobLifecycle(t *testing.T) {
	m := mustNew(2, 2.0, 0.1)
	m.JobStarted(0, 1, []float64{1, 0})
	if len(m.jobs) != 1 {
		t.Fatal("job not tracked")
	}
	m.JobFinished(1)
	if len(m.jobs) != 0 {
		t.Fatal("job not dropped")
	}
}

func TestZeroShareDefaultsToNodeZero(t *testing.T) {
	m := mustNew(2, 2.0, 0.1)
	m.JobStarted(0, 1, nil)
	// Pages on node 0; running on node 0 => locality 1.
	if got := localityOf(m, 1, []float64{1, 0}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("locality = %v", got)
	}
	// Running on node 1 => fully remote.
	if got := localityOf(m, 1, []float64{0, 1}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("remote locality = %v", got)
	}
}

func TestLocalityBounds(t *testing.T) {
	m := mustNew(4, 3.0, 0.5)
	m.JobStarted(0, 1, []float64{0.25, 0.25, 0.25, 0.25})
	shares := [][]float64{
		{1, 0, 0, 0}, {0, 0, 0, 1}, {0.5, 0.5, 0, 0}, {0.25, 0.25, 0.25, 0.25},
	}
	for i, share := range shares {
		loc := m.Advance(sim.Time(i+1)*sim.Second, 1, share)
		if loc < 1/3.0-1e-9 || loc > 1+1e-9 {
			t.Fatalf("locality %v out of [1/penalty, 1]", loc)
		}
	}
}

func mustNew(nodes int, remotePenalty, migrationRate float64) *Model {
	m, err := New(nodes, remotePenalty, migrationRate)
	if err != nil {
		panic(err)
	}
	return m
}

// localityOf returns the job's current locality factor without advancing
// time.
func localityOf(m *Model, job int, nodeShare []float64) float64 {
	p, ok := m.jobs[job]
	if !ok {
		return 1
	}
	return m.locality(p, m.normalized(nodeShare))
}
