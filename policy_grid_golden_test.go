package pdpasim

// The policy-grid golden pins every scheduling regime's output byte for byte
// against a committed record, not merely against itself: a simulator change
// that claims to be output-preserving (a performance rewrite, a data-layout
// change) must leave every digest here unchanged. Regenerate only for a
// deliberate change of results, with:
//
//	go test -run TestPolicyGridGolden -update

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// gridRun is one run of the policy grid.
type gridRun struct {
	policy Policy
	mix    string
	load   float64
	seed   int64
}

// digest runs g through run and returns its golden line: the sha256 of the
// run's WriteJSON output followed by its decision-trace JSON.
func (g gridRun) digest(t *testing.T, run func(context.Context, WorkloadSpec, Options) (*Outcome, error)) string {
	t.Helper()
	ws := WorkloadSpec{Mix: g.mix, Load: g.load, Window: 60 * time.Second, Seed: g.seed}
	out, err := run(context.Background(), ws,
		Options{Policy: g.policy, Seed: g.seed, DecisionTrace: DecisionTraceUnlimited})
	if err != nil {
		t.Fatalf("%s %s %.1f seed %d: %v", g.policy, g.mix, g.load, g.seed, err)
	}
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := out.DecisionTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("%s %s %.1f %d %s", g.policy, g.mix, g.load, g.seed, hex.EncodeToString(sum[:]))
}

// TestPolicyGridGolden runs all seven regimes × w1–w4 × loads 0.6/0.8/1.0 ×
// seeds 1–2 at 60 s windows with an unlimited decision trace, and compares
// each run's digest with testdata/policy_grid.golden: first fresh, then
// through one reused Runner. The reused leg starts with one run of every
// regime aborted mid-flight, so each manager in the Runner's table holds
// running jobs, and then visits the grid cell by cell with the regimes
// interleaved (in reverse order on every other cell), so each regime's
// recycled manager and policy follow other regimes' runs and their own
// aborted one.
func TestPolicyGridGolden(t *testing.T) {
	policies := []Policy{IRIX, Gang, Equipartition, EqualEfficiency, Dynamic, PDPA, AdaptivePDPA}
	var cells []gridRun // one per workload, policy left empty
	for _, mix := range []string{"w1", "w2", "w3", "w4"} {
		for _, load := range []float64{0.6, 0.8, 1.0} {
			for _, seed := range []int64{1, 2} {
				cells = append(cells, gridRun{mix: mix, load: load, seed: seed})
			}
		}
	}
	// Golden order is policy-major: line p*len(cells)+c is policy p on cell c.
	var got []string
	for _, policy := range policies {
		for _, c := range cells {
			c.policy = policy
			got = append(got, c.digest(t, RunContext))
		}
	}

	golden := filepath.Join("testdata", "policy_grid.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("golden has %d runs, the grid %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("fresh run differs from %s:\n got  %s\n want %s", golden, got[i], wantLines[i])
		}
	}

	r := NewRunner()
	for _, policy := range policies {
		abortMidRun(t, r, policy)
	}
	for c, cell := range cells {
		for k := range policies {
			p := k
			if c%2 == 1 {
				p = len(policies) - 1 - k
			}
			cell.policy = policies[p]
			if line, i := cell.digest(t, r.RunContext), p*len(cells)+c; line != wantLines[i] {
				t.Errorf("reused Runner's run differs from %s:\n got  %s\n want %s", golden, line, wantLines[i])
			}
		}
	}
}

// abortMidRun starts a long w4 run of policy on r and cancels it from
// inside the event loop once the decision trace shows jobs under way, so
// the run ends with jobs still queued and running.
func abortMidRun(t *testing.T, r *Runner, policy Policy) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	stop := ObserverFunc(func(TraceEvent) {
		if events++; events == 400 {
			cancel()
		}
	})
	ws := WorkloadSpec{Mix: "w4", Load: 1.0, Window: 600 * time.Second, Seed: 3}
	_, err := r.RunContext(ctx, ws, Options{Policy: policy, Seed: 3, Observer: stop})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: run meant to abort mid-flight ended with %v", policy, err)
	}
}
