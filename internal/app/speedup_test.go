package app

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAmdahlLimits(t *testing.T) {
	a := Amdahl{Parallel: 0.9}
	if a.Speedup(1) != 1 {
		t.Fatalf("S(1) = %v", a.Speedup(1))
	}
	if got := a.Speedup(2); math.Abs(got-1/(0.1+0.45)) > 1e-12 {
		t.Fatalf("S(2) = %v", got)
	}
	// Asymptote 1/(1-f) = 10.
	if got := a.Speedup(100000); math.Abs(got-10) > 0.01 {
		t.Fatalf("S(inf) = %v", got)
	}
}

func TestAmdahlOverheadCreatesMaximum(t *testing.T) {
	a := Amdahl{Parallel: 0.99, Overhead: 0.002}
	best := bestProcs(a, 100)
	if best <= 1 || best >= 100 {
		t.Fatalf("overhead model should peak inside the range, got %d", best)
	}
	if a.Speedup(100) >= a.Speedup(best) {
		t.Fatal("speedup should decline past the peak")
	}
}

func TestAmdahlClampsNegativeP(t *testing.T) {
	a := Amdahl{Parallel: 0.5}
	if a.Speedup(0) != 1 || a.Speedup(-3) != 1 {
		t.Fatal("p<1 should behave like p=1")
	}
}

func TestTableInterpolation(t *testing.T) {
	tab := MustTable(Point{1, 1}, Point{4, 4}, Point{8, 6})
	if got := tab.Speedup(2); math.Abs(got-2) > 1e-12 {
		t.Fatalf("S(2) = %v", got)
	}
	if got := tab.Speedup(6); math.Abs(got-5) > 1e-12 {
		t.Fatalf("S(6) = %v", got)
	}
	if got := tab.Speedup(4); got != 4 {
		t.Fatalf("S(4) = %v (exact point)", got)
	}
	// Flat beyond the last point.
	if got := tab.Speedup(100); got != 6 {
		t.Fatalf("S(100) = %v", got)
	}
	if got := tab.Speedup(0); got != 1 {
		t.Fatalf("S(0) = %v", got)
	}
}

func TestTableImplicitP1(t *testing.T) {
	tab := MustTable(Point{4, 4})
	if got := tab.Speedup(1); got != 1 {
		t.Fatalf("implicit S(1) = %v", got)
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(Point{0, 1}); err == nil {
		t.Fatal("procs<1 accepted")
	}
	if _, err := NewTable(Point{2, -1}); err == nil {
		t.Fatal("negative speedup accepted")
	}
	if _, err := NewTable(Point{1, 2}); err == nil {
		t.Fatal("S(1) != 1 accepted")
	}
	if _, err := NewTable(Point{4, 4}, Point{4, 5}); err == nil {
		t.Fatal("duplicate procs accepted")
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustTable(Point{0, 1})
}

func TestScaled(t *testing.T) {
	s := Scaled{Model: Amdahl{Parallel: 1}, Factor: 0.5}
	if s.Speedup(1) != 1 {
		t.Fatalf("scaled S(1) = %v", s.Speedup(1))
	}
	if got := s.Speedup(10); math.Abs(got-5) > 1e-12 {
		t.Fatalf("scaled S(10) = %v", got)
	}
}

func TestEfficiency(t *testing.T) {
	a := Amdahl{Parallel: 1}
	if got := Efficiency(a, 8); got != 1 {
		t.Fatalf("perfect efficiency = %v", got)
	}
	if got := Efficiency(a, 0); got != 1 {
		t.Fatalf("eff at p=0 should clamp: %v", got)
	}
}

func TestMaxProcsAtEfficiency(t *testing.T) {
	// hydro-like curve: efficiency crosses 0.7 between 8 and 12.
	got := MaxProcsAtEfficiency(hydroCurve, 0.7, 60)
	if got < 6 || got > 10 {
		t.Fatalf("hydro2d 0.7-efficiency point = %d, want ~8", got)
	}
	if MaxProcsAtEfficiency(Amdahl{Parallel: 1}, 0.9, 60) != 60 {
		t.Fatal("perfectly parallel app should sustain any allocation")
	}
}

// TestFigure3Shapes pins the qualitative properties of the calibrated curves
// that the paper's evaluation depends on.
func TestFigure3Shapes(t *testing.T) {
	swim := ProfileFor(Swim).Speedup
	bt := ProfileFor(BT).Speedup
	hydro := ProfileFor(Hydro2D).Speedup
	apsi := ProfileFor(Apsi).Speedup

	// swim is superlinear in the 8..16 range.
	for p := 8; p <= 16; p += 4 {
		if Efficiency(swim, p) <= 1 {
			t.Fatalf("swim not superlinear at %d procs: eff=%v", p, Efficiency(swim, p))
		}
	}
	// swim's relative speedup collapses past 16: doubling 16 -> 32 gains
	// little.
	if ratio := swim.Speedup(32) / swim.Speedup(16); ratio > 1.3 {
		t.Fatalf("swim relative speedup past 16 too high: %v", ratio)
	}
	// bt keeps efficiency >= 0.7 through its request of 30.
	if eff := Efficiency(bt, 30); eff < 0.7 {
		t.Fatalf("bt efficiency at 30 = %v, want >= 0.7", eff)
	}
	// hydro2d's 0.7-efficiency allocation is ~8-10 (the paper reports PDPA
	// settling at 9-10 processors).
	if got := MaxProcsAtEfficiency(hydro, 0.7, 60); got < 7 || got > 11 {
		t.Fatalf("hydro2d target allocation = %d", got)
	}
	// apsi does not scale: speedup below 1.7 everywhere.
	if s := apsi.Speedup(60); s > 1.7 {
		t.Fatalf("apsi S(60) = %v", s)
	}
	// apsi's efficiency at its tuned request of 2 sits just above 0.7 —
	// acceptable to PDPA with margin against measurement noise.
	if eff := Efficiency(apsi, 2); eff < 0.70 || eff > 0.78 {
		t.Fatalf("apsi eff(2) = %v, want just above 0.7", eff)
	}
	// Ordering at 30 processors: swim > bt > hydro > apsi (Fig. 3).
	if !(swim.Speedup(30) > bt.Speedup(30) && bt.Speedup(30) > hydro.Speedup(30) && hydro.Speedup(30) > apsi.Speedup(30)) {
		t.Fatalf("curve ordering broken at 30: %v %v %v %v",
			swim.Speedup(30), bt.Speedup(30), hydro.Speedup(30), apsi.Speedup(30))
	}
}

// TestCalibratedExecutionTimes checks standalone execution times against the
// per-application values the paper reports (Tables 3-4): swim ~6-10s,
// bt ~80-105s, hydro2d ~28-40s, apsi ~95-125s.
func TestCalibratedExecutionTimes(t *testing.T) {
	bounds := map[Class][2]float64{
		Swim:    {5, 11},
		BT:      {75, 110},
		Hydro2D: {25, 42},
		Apsi:    {90, 130},
	}
	for c, b := range bounds {
		p := ProfileFor(c)
		got := p.DedicatedTime(p.Request).Seconds()
		if got < b[0] || got > b[1] {
			t.Errorf("%s dedicated time with request %d = %.1fs, want in [%v, %v]",
				p.Name, p.Request, got, b[0], b[1])
		}
	}
}

func TestProfileValidate(t *testing.T) {
	for _, c := range AllClasses() {
		if err := ProfileFor(c).Validate(); err != nil {
			t.Errorf("profile %v invalid: %v", c, err)
		}
	}
	bad := *ProfileFor(Swim) // ProfileFor returns shared singletons; copy before mutating
	bad.Iterations = 0
	if bad.Validate() == nil {
		t.Fatal("zero iterations accepted")
	}
	bad = *ProfileFor(Swim)
	bad.BaselineIterations = bad.Iterations
	if bad.Validate() == nil {
		t.Fatal("baseline >= iterations accepted")
	}
}

func TestClassString(t *testing.T) {
	if Swim.String() != "swim" || BT.String() != "bt.A" ||
		Hydro2D.String() != "hydro2d" || Apsi.String() != "apsi" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "class(99)" {
		t.Fatalf("unknown class string = %q", Class(99).String())
	}
	for _, c := range AllClasses() {
		if c.Letter() == '?' {
			t.Fatalf("class %v has no letter", c)
		}
	}
}

// Property: table curves are monotone non-decreasing in p wherever their
// defining points are, and interpolation stays within the hull of adjacent
// points.
func TestTableMonotoneProperty(t *testing.T) {
	curves := []*Table{swimCurve, btCurve, hydroCurve, apsiCurve}
	for _, c := range curves {
		prev := 0.0
		for p := 1; p <= 64; p++ {
			s := c.Speedup(p)
			if s < prev {
				t.Fatalf("curve decreasing at p=%d: %v < %v", p, s, prev)
			}
			prev = s
		}
	}
}

// Property: for random tables, Speedup never extrapolates outside
// [min, max] of the defining speedups.
func TestTableBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		pts := []Point{}
		used := map[int]bool{1: true}
		for i, r := range raw {
			procs := int(r)%62 + 2
			if used[procs] {
				continue
			}
			used[procs] = true
			pts = append(pts, Point{Procs: procs, Speedup: 1 + float64(i%17)})
		}
		tab, err := NewTable(pts...)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range tab.points {
			lo = math.Min(lo, p.Speedup)
			hi = math.Max(hi, p.Speedup)
		}
		for p := 0; p < 70; p++ {
			s := tab.Speedup(p)
			if s < lo-1e-9 || s > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bestProcs returns the processor count in [1, maxProcs] with the highest
// speedup (ties resolved toward fewer processors).
func bestProcs(m SpeedupModel, maxProcs int) int {
	best, bestS := 1, m.Speedup(1)
	for p := 2; p <= maxProcs; p++ {
		if s := m.Speedup(p); s > bestS {
			best, bestS = p, s
		}
	}
	return best
}
