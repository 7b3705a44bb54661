package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"pdpasim/internal/app"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

func quick() Options { return Quick() }

var update = flag.Bool("update", false, "rewrite golden files")

// quickGolden holds one line per experiment: its id and the sha256 of its
// Result.Text at Quick(). The experiments reach parts of the simulator the
// policy-grid golden does not (the memory model, bursty arrivals,
// binary-only monitoring, the ablations), so an output-preserving simulator
// change must leave every digest here unchanged. Regenerate only for a
// deliberate change of results, with:
//
//	go test ./internal/experiments -run TestAllSpecsRun -update
//
// An -update filtered to some subtests rewrites only their lines.
const quickGolden = "testdata/quick.golden"

func TestAllSpecsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	want := map[string]string{}
	data, err := os.ReadFile(quickGolden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if id, sum, ok := strings.Cut(line, " "); ok {
			want[id] = sum
		}
	}
	got := map[string]string{}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			res, err := spec.Run(quick())
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != spec.ID {
				t.Fatalf("result id %q for spec %q", res.ID, spec.ID)
			}
			if len(res.Text) < 50 {
				t.Fatalf("suspiciously short report: %q", res.Text)
			}
			h := sha256.Sum256([]byte(res.Text))
			sum := hex.EncodeToString(h[:])
			got[spec.ID] = sum
			if !*update && want[spec.ID] != sum {
				t.Errorf("%s text digest %s, golden %s", spec.ID, sum, want[spec.ID])
			}
		})
	}
	if *update {
		var out strings.Builder
		for _, spec := range All() {
			sum, ok := got[spec.ID]
			if !ok {
				sum, ok = want[spec.ID]
			}
			if ok {
				fmt.Fprintf(&out, "%s %s\n", spec.ID, sum)
			}
		}
		if err := os.WriteFile(quickGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig4"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Seeds) == 0 || o.NCPU != 60 || len(o.Loads) != 3 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestFig3CurveOrdering(t *testing.T) {
	res, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"swim", "bt.A", "hydro2d", "apsi"} {
		if !strings.Contains(res.Text, name) {
			t.Fatalf("curve for %s missing", name)
		}
	}
}

// TestHeadlineShapes verifies the reproduction's central claims on a quick
// configuration: these are the "who wins, by roughly what factor" assertions
// of the paper.
func TestHeadlineShapes(t *testing.T) {
	o := quick().withDefaults()

	// Workload 3 at 100% load: PDPA's coordinated admission crushes the
	// fixed-MPL policies on response time (paper: ~600%).
	w, err := genWorkload(o, workload.W3(), 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pdpa, err := system.Run(system.Config{Workload: w, Policy: system.PDPA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	equip, err := system.Run(system.Config{Workload: w, Policy: system.Equipartition, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr := pdpa.ResponseByClass()
	er := equip.ResponseByClass()
	if er[app.BT] < 2*pr[app.BT] {
		t.Errorf("w3 bt response: Equip %.0fs vs PDPA %.0fs — want >= 2x gap", er[app.BT], pr[app.BT])
	}
	if er[app.Apsi] < 2*pr[app.Apsi] {
		t.Errorf("w3 apsi response: Equip %.0fs vs PDPA %.0fs — want >= 2x gap", er[app.Apsi], pr[app.Apsi])
	}
	if pdpa.MaxMPL <= 2*equip.MaxMPL {
		t.Errorf("w3 max MPL: PDPA %d vs Equip %d — dynamic level should dominate", pdpa.MaxMPL, equip.MaxMPL)
	}
	// PDPA pays a bounded execution-time cost for it (paper: ~30% for bt).
	pe := pdpa.ExecutionByClass()
	ee := equip.ExecutionByClass()
	if pe[app.BT] > 2.5*ee[app.BT] {
		t.Errorf("w3 bt execution blew up under PDPA: %.0fs vs %.0fs", pe[app.BT], ee[app.BT])
	}

	// Stability (Table 2 shape): IRIX migrates orders of magnitude more
	// than the space-sharing policies, with far shorter bursts.
	w1, err := genWorkload(o, workload.W1(), 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	irix, err := system.Run(system.Config{Workload: w1, Policy: system.IRIX, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pdpa1, err := system.Run(system.Config{Workload: w1, Policy: system.PDPA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if irix.Stability.Migrations < 100*(pdpa1.Stability.Migrations+1) {
		t.Errorf("migrations: IRIX %d vs PDPA %d — want >= 100x",
			irix.Stability.Migrations, pdpa1.Stability.Migrations)
	}
	if irix.Stability.AvgBurst*10 > pdpa1.Stability.AvgBurst {
		t.Errorf("bursts: IRIX %v vs PDPA %v — want >= 10x shorter",
			irix.Stability.AvgBurst, pdpa1.Stability.AvgBurst)
	}
}

func TestTable3UntunedShape(t *testing.T) {
	res, err := Table3(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The speedup row must show PDPA winning response by a wide margin.
	if !strings.Contains(res.Text, "speedup") {
		t.Fatalf("missing speedup row: %s", res.Text)
	}
}

func TestFig7PDPARobustToMPL(t *testing.T) {
	o := quick()
	o.Loads = []float64{1.0}
	res, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "ml") {
		t.Fatal("missing ml column")
	}
}

func TestPct(t *testing.T) {
	if got := pct(200, 100); got != 100 {
		t.Fatalf("pct(200,100) = %v", got)
	}
	if got := pct(100, 200); got != -100 {
		t.Fatalf("pct(100,200) = %v", got)
	}
	if got := pct(0, 5); got != 0 {
		t.Fatalf("pct(0,5) = %v", got)
	}
}
