package pdpasim

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the artifact end to end (workload
// generation, full-system simulation under every policy it compares, and row
// formatting) and reports the artifact's headline numbers as custom metrics,
// so `go test -bench . -benchmem` both times the reproduction and prints the
// values to compare against the paper. Run with -v (or read
// EXPERIMENTS.md) for the full formatted tables.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pdpasim/internal/app"
	"pdpasim/internal/experiments"
	"pdpasim/internal/obs"
	"pdpasim/internal/sim"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// benchOpts keeps benchmark iterations affordable: one seed, the two
// extreme loads.
func benchOpts() experiments.Options { return experiments.Quick() }

func runExperiment(b *testing.B, run func(experiments.Options) (experiments.Result, error)) experiments.Result {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		b.Log("\n" + res.String())
	}
	return res
}

// classMetrics runs one workload mix at the given load under every policy
// and reports avg response times per policy as benchmark metrics.
func classMetrics(b *testing.B, mix workload.Mix, load float64, c app.Class, metricPrefix string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		w, err := workload.Generate(workload.GenConfig{
			Mix: mix, Load: load, NCPU: 60, Window: 300 * sim.Second, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, pk := range system.PolicyKinds() {
			res, err := system.Run(system.Config{Workload: w, Policy: pk, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.ResponseByClass()[c], string(pk)+"_"+metricPrefix+"_resp_s")
			}
		}
	}
}

func BenchmarkFig3SpeedupCurves(b *testing.B) {
	res := runExperiment(b, experiments.Fig3)
	if !strings.Contains(res.Text, "swim") {
		b.Fatal("missing curves")
	}
	b.ReportMetric(app.ProfileFor(app.Swim).Speedup.Speedup(16), "swim_S16")
	b.ReportMetric(app.ProfileFor(app.BT).Speedup.Speedup(30), "bt_S30")
	b.ReportMetric(app.ProfileFor(app.Hydro2D).Speedup.Speedup(30), "hydro_S30")
	b.ReportMetric(app.ProfileFor(app.Apsi).Speedup.Speedup(30), "apsi_S30")
}

func BenchmarkTable1WorkloadCharacteristics(b *testing.B) {
	res := runExperiment(b, experiments.Table1)
	if !strings.Contains(res.Text, "w4") {
		b.Fatal("missing mixes")
	}
}

func BenchmarkFig4Workload1(b *testing.B) {
	runExperiment(b, experiments.Fig4)
}

func BenchmarkFig5TraceViews(b *testing.B) {
	res := runExperiment(b, experiments.Fig5)
	if !strings.Contains(res.Text, "cpu00") {
		b.Fatal("missing trace rows")
	}
}

func BenchmarkTable2Stability(b *testing.B) {
	var irixMig, pdpaMig float64
	for i := 0; i < b.N; i++ {
		w, err := workload.Generate(workload.GenConfig{
			Mix: workload.W1(), Load: 1.0, NCPU: 60, Window: 300 * sim.Second, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, pk := range []system.PolicyKind{system.IRIX, system.PDPA, system.Equipartition} {
			res, err := system.Run(system.Config{Workload: w, Policy: pk, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			switch pk {
			case system.IRIX:
				irixMig = float64(res.Stability.Migrations)
			case system.PDPA:
				pdpaMig = float64(res.Stability.Migrations)
			}
		}
	}
	b.ReportMetric(irixMig, "irix_migrations")
	b.ReportMetric(pdpaMig, "pdpa_migrations")
}

func BenchmarkFig6Workload2(b *testing.B) {
	runExperiment(b, experiments.Fig6)
}

func BenchmarkFig7MultiprogrammingLevels(b *testing.B) {
	runExperiment(b, experiments.Fig7)
}

func BenchmarkFig8MPLTimeline(b *testing.B) {
	res := runExperiment(b, experiments.Fig8)
	if !strings.Contains(res.Text, "max ML") {
		b.Fatal("missing timeline")
	}
}

func BenchmarkFig9Workload3(b *testing.B) {
	classMetrics(b, workload.W3(), 1.0, app.BT, "w3_bt")
}

func BenchmarkTable3UntunedApsi(b *testing.B) {
	runExperiment(b, experiments.Table3)
}

func BenchmarkFig10Workload4(b *testing.B) {
	classMetrics(b, workload.W4(), 0.8, app.Swim, "w4_swim")
}

func BenchmarkTable4UntunedWorkload4(b *testing.B) {
	runExperiment(b, experiments.Table4)
}

func BenchmarkAblationTargetEfficiency(b *testing.B) {
	runExperiment(b, experiments.AblationTargetEff)
}

func BenchmarkAblationStep(b *testing.B) {
	runExperiment(b, experiments.AblationStep)
}

func BenchmarkAblationNoise(b *testing.B) {
	runExperiment(b, experiments.AblationNoise)
}

// benchSweepSpec is the acceptance grid for the sweep engine: 4 policies ×
// 2 mixes × 2 seeds (16 runs, 8 cells).
func benchSweepSpec() SweepSpec {
	return SweepSpec{
		Policies: []Policy{IRIX, Equipartition, EqualEfficiency, PDPA},
		Mixes:    []string{"w1", "w3"},
		Loads:    []float64{1.0},
		Seeds:    []int64{1, 2},
		NCPU:     60,
		Window:   300 * time.Second,
	}
}

// BenchmarkSweep compares the parallel grid engine across worker counts on
// the 4-policy × 2-mix × 2-seed grid, against serial cell-by-cell execution
// through the single-run facade (which rebuilds the workload for every
// policy, as cmd/experiments used to).
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := benchSweepSpec()
				spec.Workers = workers
				if _, err := Sweep(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("serial-cell-by-cell", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec := benchSweepSpec()
			for _, mix := range spec.Mixes {
				for _, load := range spec.Loads {
					for _, pol := range spec.Policies {
						for _, seed := range spec.Seeds {
							wspec := WorkloadSpec{
								Mix: mix, Load: load, NCPU: spec.NCPU,
								Window: spec.Window, Seed: seed,
							}
							opts := Options{Policy: pol, Seed: seed}
							if _, err := RunContext(context.Background(), wspec, opts); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkSingleRunPDPA times one full-system simulation (workload 4 at
// 100% load under PDPA) — the simulator's core throughput number.
func BenchmarkSingleRunPDPA(b *testing.B) {
	w, err := workload.Generate(workload.GenConfig{
		Mix: workload.W4(), Load: 1.0, NCPU: 60, Window: 300 * sim.Second, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := system.Run(system.Config{Workload: w, Policy: system.PDPA, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRunEqualEff is BenchmarkSingleRunPDPA under
// Equal_efficiency, which reallocates on every performance report: the
// space-sharing manager's replan path dominates its profile.
func BenchmarkSingleRunEqualEff(b *testing.B) {
	w, err := workload.Generate(workload.GenConfig{
		Mix: workload.W4(), Load: 1.0, NCPU: 60, Window: 300 * sim.Second, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := system.Run(system.Config{Workload: w, Policy: system.EqualEfficiency, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRunPDPAReuse is BenchmarkSingleRunPDPA on one reused
// System: every run after the first recycles the engine heap, recorder,
// machine, queuing slabs, and per-job runtime state, so allocs/op here is
// the steady-state allocation count of the run path itself. The bench gate
// holds it near zero; the delta against SingleRunPDPA is the construction
// cost a fresh environment pays per run.
func BenchmarkSingleRunPDPAReuse(b *testing.B) {
	w, err := workload.Generate(workload.GenConfig{
		Mix: workload.W4(), Load: 1.0, NCPU: 60, Window: 300 * sim.Second, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	sys := system.NewSystem()
	// Warm the arenas once so the timed loop measures steady state.
	if _, err := sys.Run(system.Config{Workload: w, Policy: system.PDPA, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(system.Config{Workload: w, Policy: system.PDPA, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepManyJobs pushes one sweep cell through more than a million
// simulated jobs: a w1 trace spanning an 8.4M-second window under PDPA in
// coarse throughput mode (stride 16). It validates that throughput mode
// plus arena reuse keep grid scaling affordable at four orders of magnitude
// more jobs than the paper's 300-second windows, and fails if the run ever
// completes fewer than a million jobs. Load is 0.8 rather than 1.0: a
// critically-loaded queue accumulates an O(sqrt(t)) backlog over a window
// this long and would spend an unbounded tail draining it.
func BenchmarkSweepManyJobs(b *testing.B) {
	var jobs int
	for i := 0; i < b.N; i++ {
		spec := SweepSpec{
			Policies:   []Policy{PDPA},
			Mixes:      []string{"w1"},
			Loads:      []float64{0.8},
			Seeds:      []int64{1},
			NCPU:       60,
			Window:     8_400_000 * time.Second,
			Workers:    1,
			Throughput: 16,
		}
		res, err := Sweep(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		jobs = 0
		for _, run := range res.Runs {
			jobs += len(run.Jobs)
		}
		if jobs < 1_000_000 {
			b.Fatalf("sweep simulated %d jobs, want >= 1000000", jobs)
		}
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkSingleRunIRIX times the heaviest regime (per-quantum placement).
func BenchmarkSingleRunIRIX(b *testing.B) {
	w, err := workload.Generate(workload.GenConfig{
		Mix: workload.W1(), Load: 1.0, NCPU: 60, Window: 300 * sim.Second, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := system.Run(system.Config{Workload: w, Policy: system.IRIX, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleRunIRIXSettled is BenchmarkSingleRunIRIX on a workload whose
// quanta are never oversubscribed (workload 3 at 100% load): every quantum
// after a start, a finish or a thread-count change repeats the previous
// placement, the case IRIX place skips. BenchmarkSingleRunIRIX (workload 1)
// is mostly oversubscribed and places every quantum in full.
func BenchmarkSingleRunIRIXSettled(b *testing.B) {
	w, err := workload.Generate(workload.GenConfig{
		Mix: workload.W3(), Load: 1.0, NCPU: 60, Window: 300 * sim.Second, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := system.Run(system.Config{Workload: w, Policy: system.IRIX, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObservedRunPDPA is BenchmarkSingleRunPDPA with decision tracing
// enabled in stream-only mode: the delta against SingleRunPDPA is the cost
// of the observability hooks when a trace is attached. The gated SingleRun*
// benchmarks run with tracing off, so the bench gate enforces that a nil
// trace stays free on the hot paths.
func BenchmarkObservedRunPDPA(b *testing.B) {
	w, err := workload.Generate(workload.GenConfig{
		Mix: workload.W4(), Load: 1.0, NCPU: 60, Window: 300 * sim.Second, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := system.Config{Workload: w, Policy: system.PDPA, Seed: 1, Trace: obs.NewTrace(-1)}
		if _, err := system.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMalleability(b *testing.B) {
	runExperiment(b, experiments.AblationMalleability)
}

func BenchmarkExtendedBaselines(b *testing.B) {
	runExperiment(b, experiments.ExtendedBaselines)
}

func BenchmarkMemoryStability(b *testing.B) {
	runExperiment(b, experiments.MemoryStability)
}

func BenchmarkMonitoringPath(b *testing.B) {
	runExperiment(b, experiments.MonitoringPath)
}

// BenchmarkScorecard times the full claim-verification sweep.
func BenchmarkScorecard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := Scorecard(ExperimentOptions{Quick: true})
		if !strings.Contains(out, "claims reproduced") {
			b.Fatal("scorecard incomplete")
		}
	}
}
