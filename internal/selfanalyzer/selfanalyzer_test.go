package selfanalyzer

import (
	"math"
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/sim"
	"pdpasim/internal/stats"
)

func clean(idx int, wall sim.Time) app.IterationSample {
	return app.IterationSample{Index: idx, WallTime: wall, Clean: true}
}

// analyzerFor builds a noiseless analyzer for a perfectly parallel app with
// baseline at 4 procs over 2 iterations.
func testAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	a, err := New(Config{
		BaselineProcs: 4, BaselineIterations: 2,
		AF: app.Amdahl{Parallel: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBaselineThenMeasure(t *testing.T) {
	a := testAnalyzer(t)
	if !a.InBaseline() || a.BaselineCap() != 4 {
		t.Fatal("fresh analyzer should be in baseline with cap 4")
	}
	if _, ok := a.RecordIteration(clean(0, 25*sim.Second), 4); ok {
		t.Fatal("first baseline iteration should not yield a measurement")
	}
	if _, ok := a.RecordIteration(clean(1, 25*sim.Second), 4); ok {
		t.Fatal("baseline completion must not leak a measurement to the scheduler")
	}
	if a.InBaseline() {
		t.Fatal("baseline should be done")
	}
	if a.baselineTime != 25*sim.Second {
		t.Fatalf("baseline time = %v", a.baselineTime)
	}
	// Iteration at 20 procs, perfectly parallel: wall = 25s * 4/20 = 5s.
	m, ok := a.RecordIteration(clean(2, 5*sim.Second), 20)
	if !ok {
		t.Fatal("clean post-baseline iteration should measure")
	}
	if math.Abs(m.Speedup-20) > 1e-9 || math.Abs(m.Efficiency-1) > 1e-9 {
		t.Fatalf("measurement = %+v", m)
	}
}

func TestDirtySamplesIgnored(t *testing.T) {
	a := testAnalyzer(t)
	dirty := app.IterationSample{Index: 0, WallTime: sim.Second, Clean: false}
	if _, ok := a.RecordIteration(dirty, 4); ok {
		t.Fatal("dirty sample measured")
	}
	if !a.InBaseline() {
		t.Fatal("dirty sample advanced baseline")
	}
}

func TestBaselineRestartsOnProcsChange(t *testing.T) {
	a := testAnalyzer(t)
	a.RecordIteration(clean(0, 25*sim.Second), 4)
	// RM shrank the allocation mid-baseline: restart at 2 procs.
	if _, ok := a.RecordIteration(clean(1, 50*sim.Second), 2); ok {
		t.Fatal("restarted baseline should not complete after one sample")
	}
	if _, ok := a.RecordIteration(clean(2, 50*sim.Second), 2); ok {
		t.Fatal("baseline completion must not measure")
	}
	if a.InBaseline() {
		t.Fatal("baseline should be complete at the new procs")
	}
	m, ok := a.RecordIteration(clean(3, 50*sim.Second), 2)
	if !ok || m.Procs != 2 || math.Abs(m.Speedup-2) > 1e-9 {
		t.Fatalf("measurement = %+v ok=%v", m, ok)
	}
}

func TestAmdahlFactorNormalization(t *testing.T) {
	// AF hint says speedup at 4 procs is 3 (75% efficiency).
	af := app.MustTable(
		app.Point{Procs: 1, Speedup: 1},
		app.Point{Procs: 4, Speedup: 3},
		app.Point{Procs: 8, Speedup: 5},
	)
	a := MustNew(Config{BaselineProcs: 4, BaselineIterations: 1, AF: af}, nil)
	if _, ok := a.RecordIteration(clean(0, 30*sim.Second), 4); ok {
		t.Fatal("baseline completion must not measure")
	}
	// An iteration twice as fast as baseline: speedup = 3 * 2 = 6.
	m, ok := a.RecordIteration(clean(1, 15*sim.Second), 8)
	if !ok || math.Abs(m.Speedup-6) > 1e-9 || math.Abs(m.Efficiency-0.75) > 1e-9 {
		t.Fatalf("measurement = %+v", m)
	}
}

func TestNoiseIsBoundedAndDeterministic(t *testing.T) {
	mk := func() *Analyzer {
		return MustNew(Config{
			BaselineProcs: 1, BaselineIterations: 1,
			NoiseSigma: 0.02, AF: app.Amdahl{Parallel: 1},
		}, stats.NewRNG(99))
	}
	a, b := mk(), mk()
	a.RecordIteration(clean(0, 10*sim.Second), 1)
	b.RecordIteration(clean(0, 10*sim.Second), 1)
	for i := 1; i < 50; i++ {
		ma, oka := a.RecordIteration(clean(i, sim.Second), 10)
		mb, okb := b.RecordIteration(clean(i, sim.Second), 10)
		if oka != okb || ma.Speedup != mb.Speedup {
			t.Fatal("noise not deterministic per seed")
		}
		// 2% log-noise on both baseline and sample: speedup within ~±15%.
		if ma.Speedup < 8.5 || ma.Speedup > 11.5 {
			t.Fatalf("noisy speedup %v implausible", ma.Speedup)
		}
	}
}

func TestInvalidInputsRejected(t *testing.T) {
	a := testAnalyzer(t)
	if _, ok := a.RecordIteration(clean(0, sim.Second), 0); ok {
		t.Fatal("procs=0 measured")
	}
	if _, ok := a.RecordIteration(clean(0, 0), 4); ok {
		t.Fatal("zero wall time measured")
	}
}

func TestConfigValidation(t *testing.T) {
	af := app.Amdahl{Parallel: 1}
	cases := []Config{
		{BaselineProcs: 0, BaselineIterations: 1, AF: af},
		{BaselineProcs: 1, BaselineIterations: 0, AF: af},
		{BaselineProcs: 1, BaselineIterations: 1, NoiseSigma: -1, AF: af},
		{BaselineProcs: 1, BaselineIterations: 1},
	}
	for i, c := range cases {
		if _, err := New(c, nil); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(Config{BaselineProcs: 1, BaselineIterations: 1, NoiseSigma: 0.1, AF: af}, nil); err == nil {
		t.Error("noise without RNG accepted")
	}
}

func TestConfigFor(t *testing.T) {
	prof := app.ProfileFor(app.BT)
	cfg := ConfigFor(prof, 0.01)
	if cfg.BaselineProcs != prof.BaselineProcs || cfg.BaselineIterations != prof.BaselineIterations {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.AF.Speedup(8) != prof.Speedup.Speedup(8) {
		t.Fatal("AF hint should be the profile curve")
	}
	a := MustNew(cfg, stats.NewRNG(1))
	if a.BaselineCap() != prof.BaselineProcs {
		t.Fatal("cap mismatch")
	}
}

// TestEndToEndAccuracy runs the analyzer over a simulated bt execution and
// checks the measured efficiencies track the true curve within noise.
func TestEndToEndAccuracy(t *testing.T) {
	prof := app.ProfileFor(app.BT)
	a := MustNew(ConfigFor(prof, 0.01), stats.NewRNG(5))
	t1 := prof.SerialIterationTime
	iter := 0
	feed := func(procs int) (Measurement, bool) {
		wall := sim.Time(float64(t1) / prof.Speedup.Speedup(procs))
		m, ok := a.RecordIteration(clean(iter, wall), procs)
		iter++
		return m, ok
	}
	feed(4)
	feed(4) // baseline done
	for _, p := range []int{8, 16, 24, 30} {
		m, ok := feed(p)
		if !ok {
			t.Fatalf("no measurement at %d", p)
		}
		trueEff := app.Efficiency(prof.Speedup, p)
		if math.Abs(m.Efficiency-trueEff) > 0.08*trueEff {
			t.Fatalf("eff at %d = %v, true %v", p, m.Efficiency, trueEff)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(Config{}, nil)
}
