package pdpasim

// Determinism regression tests: the same seed and spec must yield
// byte-identical serialized results, run after run and across the Run /
// RunContext entry points. This property is the correctness foundation for
// the runqueue's result cache — a cached outcome is only substitutable for a
// fresh simulation if replaying the spec could never produce different
// bytes.

import (
	"bytes"
	"context"
	"testing"
	"time"
)

func runJSON(t *testing.T, run func() (*Outcome, error)) []byte {
	t.Helper()
	out, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicSweepAcrossWorkers extends the determinism guarantee to
// the sweep engine: the serialized grid result must be byte-identical no
// matter how many workers executed it, and identical run to run. This is
// what makes parallel sweeps substitutable for serial ones.
func TestDeterministicSweepAcrossWorkers(t *testing.T) {
	spec := SweepSpec{
		Policies: []Policy{PDPA, Equipartition, IRIX},
		Mixes:    []string{"w1", "w3"},
		Loads:    []float64{1.0},
		Seeds:    []int64{1, 2},
		NCPU:     32,
		Window:   60 * time.Second,
	}
	sweepJSON := func(workers int) []byte {
		t.Helper()
		spec := spec
		spec.Workers = workers
		res, err := Sweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	baseline := sweepJSON(1)
	if len(baseline) < 100 {
		t.Fatalf("suspiciously small sweep result: %d bytes", len(baseline))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		if !bytes.Equal(baseline, sweepJSON(workers)) {
			t.Fatalf("sweep with %d workers produced different bytes than 1 worker", workers)
		}
	}
}

func TestDeterministicWriteJSON(t *testing.T) {
	spec := WorkloadSpec{Mix: "w3", Load: 0.8, Seed: 42}
	for _, opts := range []Options{
		{Policy: PDPA, Seed: 42},
		{Policy: Equipartition, Seed: 42},
		{Policy: IRIX, Seed: 42},
	} {
		opts := opts
		t.Run(string(opts.Policy), func(t *testing.T) {
			run := func() (*Outcome, error) {
				return RunContext(context.Background(), spec, opts)
			}
			first := runJSON(t, run)
			again := runJSON(t, run)
			if !bytes.Equal(first, again) {
				t.Fatal("two RunContext invocations of the same spec produced different JSON")
			}
			if len(first) < 100 {
				t.Fatalf("suspiciously small result: %d bytes", len(first))
			}
		})
	}
}

// TestResultIndependentOfDecisionTrace: recording a decision trace never
// changes a run's result. Over the paper's 48-cell grid (four policies ×
// w1–w4 × loads 0.6/0.8/1.0) at one seed, the serialized outcome is
// byte-identical untraced and at the daemon's 2000-event trace limit. This
// is what lets the daemon simulate untraced and derive a trace only when
// one is read.
func TestResultIndependentOfDecisionTrace(t *testing.T) {
	for _, policy := range []Policy{IRIX, Equipartition, EqualEfficiency, PDPA} {
		for _, mix := range []string{"w1", "w2", "w3", "w4"} {
			for _, load := range []float64{0.6, 0.8, 1.0} {
				ws := WorkloadSpec{Mix: mix, Load: load, Window: 60 * time.Second, Seed: 1}
				run := func(limit int) func() (*Outcome, error) {
					return func() (*Outcome, error) {
						return RunContext(context.Background(), ws, Options{Policy: policy, Seed: 1, DecisionTrace: limit})
					}
				}
				if !bytes.Equal(runJSON(t, run(0)), runJSON(t, run(2000))) {
					t.Errorf("%s %s load %.1f: result differs with a 2000-event decision trace", policy, mix, load)
				}
			}
		}
	}
}
