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
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestPolicyGridGolden runs all seven regimes × w1–w4 × loads 0.6/0.8/1.0 ×
// seeds 1–2 at 60 s windows with an unlimited decision trace, and compares
// the sha256 of each run's WriteJSON output followed by its trace JSON with
// testdata/policy_grid.golden.
func TestPolicyGridGolden(t *testing.T) {
	policies := []Policy{IRIX, Gang, Equipartition, EqualEfficiency, Dynamic, PDPA, AdaptivePDPA}
	var got strings.Builder
	var buf bytes.Buffer
	for _, policy := range policies {
		for _, mix := range []string{"w1", "w2", "w3", "w4"} {
			for _, load := range []float64{0.6, 0.8, 1.0} {
				for _, seed := range []int64{1, 2} {
					ws := WorkloadSpec{Mix: mix, Load: load, Window: 60 * time.Second, Seed: seed}
					out, err := RunContext(context.Background(), ws,
						Options{Policy: policy, Seed: seed, DecisionTrace: DecisionTraceUnlimited})
					if err != nil {
						t.Fatalf("%s %s %.1f seed %d: %v", policy, mix, load, seed, err)
					}
					buf.Reset()
					if err := out.WriteJSON(&buf); err != nil {
						t.Fatal(err)
					}
					if err := out.DecisionTrace().WriteJSON(&buf); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(buf.Bytes())
					fmt.Fprintf(&got, "%s %s %.1f %d %s\n", policy, mix, load, seed, hex.EncodeToString(sum[:]))
				}
			}
		}
	}

	golden := filepath.Join("testdata", "policy_grid.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d runs, the grid %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("run differs from %s:\n got  %s\n want %s", golden, gotLines[i], wantLines[i])
		}
	}
}
