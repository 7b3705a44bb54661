package system

import (
	"context"
	"errors"
	"testing"
	"time"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/sim"
	"pdpasim/internal/workload"
)

// smallWorkload builds a quick deterministic workload for system tests.
func smallWorkload(t *testing.T, mix workload.Mix, load float64, seed int64) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.GenConfig{
		Mix: mix, Load: load, NCPU: 60, Window: 120 * sim.Second, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	w := smallWorkload(t, workload.W3(), 0.6, 1)
	if _, err := Run(Config{Workload: w, Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestAllPoliciesCompleteW3(t *testing.T) {
	w := smallWorkload(t, workload.W3(), 0.6, 1)
	for _, pk := range PolicyKinds() {
		res, err := Run(Config{Workload: w, Policy: pk, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", pk, err)
		}
		if len(res.Jobs) != len(w.Jobs) {
			t.Fatalf("%s: %d results for %d jobs", pk, len(res.Jobs), len(w.Jobs))
		}
		for _, j := range res.Jobs {
			if j.End <= j.Start || j.Start < j.Submit {
				t.Fatalf("%s: job %d times inconsistent: %+v", pk, j.ID, j)
			}
			if j.CPUSeconds <= 0 {
				t.Fatalf("%s: job %d consumed no CPU", pk, j.ID)
			}
		}
		if res.Makespan <= 0 || res.MaxMPL < 1 {
			t.Fatalf("%s: makespan=%v maxMPL=%d", pk, res.Makespan, res.MaxMPL)
		}
	}
}

func TestDeterminism(t *testing.T) {
	w := smallWorkload(t, workload.W1(), 0.6, 3)
	a, err := Run(Config{Workload: w, Policy: PDPA, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Workload: w, Policy: PDPA, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespan differs: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.Jobs {
		if a.Jobs[i].End != b.Jobs[i].End {
			t.Fatalf("job %d end differs", i)
		}
	}
}

func TestPDPADynamicMPLExceedsFixed(t *testing.T) {
	// w3 (bt + apsi): apsi stabilizes at tiny allocations, so PDPA's
	// coordinated admission must push the multiprogramming level well past
	// the fixed 4 (the paper reports up to 34).
	w := smallWorkload(t, workload.W3(), 1.0, 2)
	pdpa, err := Run(Config{Workload: w, Policy: PDPA, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pdpa.MaxMPL <= 4 {
		t.Fatalf("PDPA maxMPL = %d, want > 4", pdpa.MaxMPL)
	}
	equip, err := Run(Config{Workload: w, Policy: Equipartition, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if equip.MaxMPL > 4 {
		t.Fatalf("Equip maxMPL = %d, fixed level violated", equip.MaxMPL)
	}
}

func TestPDPAImprovesResponseOnW3(t *testing.T) {
	// The headline result (Fig. 9): with non-scalable apsi in the mix, PDPA
	// beats Equipartition on response time by a large factor.
	w := smallWorkload(t, workload.W3(), 1.0, 4)
	pdpa, err := Run(Config{Workload: w, Policy: PDPA, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	equip, err := Run(Config{Workload: w, Policy: Equipartition, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr := pdpa.ResponseByClass()[app.Apsi]
	er := equip.ResponseByClass()[app.Apsi]
	if pr >= er {
		t.Fatalf("PDPA apsi response %.1fs not better than Equip %.1fs", pr, er)
	}
}

func TestIRIXWorstStability(t *testing.T) {
	w := smallWorkload(t, workload.W1(), 1.0, 5)
	irix, err := Run(Config{Workload: w, Policy: IRIX, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pdpa, err := Run(Config{Workload: w, Policy: PDPA, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if irix.Stability.Migrations < 100*pdpa.Stability.Migrations/10 {
		t.Fatalf("IRIX migrations %d vs PDPA %d: gap too small",
			irix.Stability.Migrations, pdpa.Stability.Migrations)
	}
	if irix.Stability.AvgBurst >= pdpa.Stability.AvgBurst {
		t.Fatalf("IRIX avg burst %v should be far below PDPA %v",
			irix.Stability.AvgBurst, pdpa.Stability.AvgBurst)
	}
}

func TestNoiseDisabled(t *testing.T) {
	w := smallWorkload(t, workload.W2(), 0.6, 6)
	res, err := Run(Config{Workload: w, Policy: PDPA, Seed: 6, NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(w.Jobs) {
		t.Fatal("jobs missing")
	}
}

func TestCustomPDPAParams(t *testing.T) {
	w := smallWorkload(t, workload.W2(), 0.6, 7)
	params := core.DefaultParams()
	params.TargetEff = 0.5
	res, err := Run(Config{Workload: w, Policy: PDPA, PDPAParams: &params, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Lower target => larger hydro allocations than with 0.7.
	strictRes, err := Run(Config{Workload: w, Policy: PDPA, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lax := res.AvgAllocByClass()[app.Hydro2D]
	strict := strictRes.AvgAllocByClass()[app.Hydro2D]
	if lax <= strict {
		t.Fatalf("hydro alloc with target 0.5 (%v) not above target 0.7 (%v)", lax, strict)
	}
}

func TestKeepBurstsRendering(t *testing.T) {
	w := smallWorkload(t, workload.W1(), 0.6, 8)
	res, err := Run(Config{Workload: w, Policy: PDPA, Seed: 8, KeepBursts: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder == nil || len(res.Recorder.Bursts()) == 0 {
		t.Fatal("bursts not kept")
	}
}

func TestMemoryModelBounded(t *testing.T) {
	// With the CC-NUMA page model on (Origin-like parameters), memory
	// effects cost every space-sharing policy only a modest slowdown — the
	// migration daemon does its work as long as the schedule is stable
	// (Section 5.1.1).
	// Use the paper's full 300 s window: on very short windows the search
	// transient dominates job lifetimes and amplifies locality costs.
	w, err := workload.Generate(workload.GenConfig{
		Mix: workload.W1(), Load: 1.0, NCPU: 60, Window: 300 * sim.Second, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	slowdown := func(pk PolicyKind) float64 {
		base, rerr := Run(Config{Workload: w, Policy: pk, Seed: 21, NUMANodeSize: 4})
		if rerr != nil {
			t.Fatal(rerr)
		}
		numa, rerr := Run(Config{Workload: w, Policy: pk, Seed: 21, NUMANodeSize: 4, Memory: true})
		if rerr != nil {
			t.Fatal(rerr)
		}
		return numa.Makespan.Seconds() / base.Makespan.Seconds()
	}
	pdpa := slowdown(PDPA)
	eqeff := slowdown(EqualEfficiency)
	// With a working page-migration daemon the cost stays small for every
	// space-sharing policy; runaway slowdowns would mean the locality
	// feedback loop broke the search.
	if pdpa > 1.3 {
		t.Fatalf("PDPA slowdown %v too large for a stable schedule", pdpa)
	}
	if eqeff > 1.3 {
		t.Fatalf("Equal_eff slowdown %v too large", eqeff)
	}
}

func TestMemoryModelNeutralWithoutNUMA(t *testing.T) {
	w := smallWorkload(t, workload.W3(), 0.6, 22)
	a, err := Run(Config{Workload: w, Policy: PDPA, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	// The memory model without NUMA topology is ignored.
	b, err := Run(Config{Workload: w, Policy: PDPA, Seed: 22, Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatal("memory model applied without NUMA topology")
	}
}

func TestExtendedPolicyKindsComplete(t *testing.T) {
	w := smallWorkload(t, workload.W2(), 0.6, 23)
	for _, pk := range ExtendedPolicyKinds() {
		if _, err := Run(Config{Workload: w, Policy: pk, Seed: 23}); err != nil {
			t.Fatalf("%s: %v", pk, err)
		}
	}
}

func TestBinaryOnlySlowsConvergence(t *testing.T) {
	w := smallWorkload(t, workload.W3(), 0.8, 25)
	instr, err := Run(Config{Workload: w, Policy: PDPA, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Run(Config{Workload: w, Policy: PDPA, Seed: 25, BinaryOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Discovery warm-up cannot make things faster overall.
	if bin.Makespan < instr.Makespan-instr.Makespan/10 {
		t.Fatalf("binary-only makespan %v much faster than instrumented %v",
			bin.Makespan, instr.Makespan)
	}
}

func TestSlowdownComputed(t *testing.T) {
	w := smallWorkload(t, workload.W3(), 0.6, 26)
	res, err := Run(Config{Workload: w, Policy: PDPA, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, j := range res.Jobs {
		if j.Slowdown < 0.9 {
			t.Fatalf("job %d slowdown %v < ~1 (cannot beat a dedicated machine by much)", j.ID, j.Slowdown)
		}
		sum += j.Slowdown
	}
	if mean := sum / float64(len(res.Jobs)); mean < 1 {
		t.Fatalf("mean slowdown %v", mean)
	}
}

func TestAdaptivePDPARuns(t *testing.T) {
	w := smallWorkload(t, workload.W2(), 0.6, 27)
	res, err := Run(Config{Workload: w, Policy: AdaptivePDPA, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "PDPA-adaptive" {
		t.Fatalf("policy name %q", res.Policy)
	}
	if res.MaxMPL < 1 || len(res.Jobs) != len(w.Jobs) {
		t.Fatal("incomplete run")
	}
}

func TestRunContextCancellation(t *testing.T) {
	w := smallWorkload(t, workload.W3(), 1.0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the run must abort before doing any work
	if _, err := RunContext(ctx, Config{Workload: w, Policy: PDPA}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// An expiring deadline aborts the run rather than letting it complete.
	// The deadline must already be past when the engine starts: a small
	// simulation finishes in well under a millisecond of wall time, so any
	// later deadline would race the run to completion.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Microsecond)
	start := time.Now()
	_, err := RunContext(dctx, Config{Workload: w, Policy: PDPA})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("abort took %v; not prompt", wall)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	w1 := smallWorkload(t, workload.W3(), 0.8, 3)
	w2 := smallWorkload(t, workload.W3(), 0.8, 3)
	a, err := Run(Config{Workload: w1, Policy: PDPA, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), Config{Workload: w2, Policy: PDPA, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("RunContext diverged from Run: makespan %v vs %v", a.Makespan, b.Makespan)
	}
}
