package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pdpasim
cpu: Intel(R) Xeon(R) Platinum 8481C CPU @ 2.70GHz
BenchmarkSingleRunPDPA-2   	      79	  24639637 ns/op	 1282843 B/op	    4784 allocs/op
BenchmarkSingleRunPDPA-2   	      51	  21619448 ns/op	 1282865 B/op	    4784 allocs/op
BenchmarkSingleRunPDPA-2   	      48	  28622553 ns/op	 1282948 B/op	    4784 allocs/op
BenchmarkSingleRunIRIX-2   	      28	  37372468 ns/op	  769923 B/op	    1294 allocs/op
BenchmarkSweep/workers=2-2 	       4	 293192625 ns/op
BenchmarkSweepManyJobs-2   	       1	30937174788 ns/op	   1051636 jobs	1895701472 B/op	 1056122 allocs/op
PASS
ok  	pdpasim	15.405s
`

func TestParseBench(t *testing.T) {
	results, cpu, goEnv := parseBench(strings.NewReader(sampleOutput))
	if cpu == "" || !strings.Contains(cpu, "Xeon") {
		t.Errorf("cpu = %q, want Xeon line", cpu)
	}
	if goEnv != "linux/amd64" {
		t.Errorf("goEnv = %q", goEnv)
	}
	pdpa, ok := results["SingleRunPDPA"]
	if !ok {
		t.Fatalf("SingleRunPDPA missing: %v", results)
	}
	if pdpa.Samples != 3 {
		t.Errorf("samples = %d, want 3", pdpa.Samples)
	}
	// Median of {24639637, 21619448, 28622553}.
	if pdpa.NsPerOp != 24639637 {
		t.Errorf("ns/op = %v, want median 24639637", pdpa.NsPerOp)
	}
	// Max B/op across samples.
	if pdpa.BytesPerOp != 1282948 {
		t.Errorf("B/op = %v, want max 1282948", pdpa.BytesPerOp)
	}
	if pdpa.AllocsPerOp != 4784 {
		t.Errorf("allocs/op = %v", pdpa.AllocsPerOp)
	}
	// Sub-benchmarks keep their full name; no -benchmem columns is fine.
	sweep, ok := results["Sweep/workers=2"]
	if !ok {
		t.Fatalf("Sweep/workers=2 missing: %v", results)
	}
	if sweep.NsPerOp != 293192625 || sweep.AllocsPerOp != 0 {
		t.Errorf("sweep = %+v", sweep)
	}
	if _, ok := results["SingleRunIRIX"]; !ok {
		t.Errorf("SingleRunIRIX missing")
	}
	// A custom b.ReportMetric column between ns/op and B/op must not detach
	// the -benchmem columns.
	many, ok := results["SweepManyJobs"]
	if !ok {
		t.Fatalf("SweepManyJobs missing: %v", results)
	}
	if many.BytesPerOp != 1895701472 || many.AllocsPerOp != 1056122 {
		t.Errorf("many = %+v, want B/op and allocs/op despite custom metric", many)
	}
	// Custom columns are kept by unit, as the median over samples.
	if got := many.Metrics["jobs"]; got != 1051636 || len(many.Metrics) != 1 {
		t.Errorf("many metrics = %v, want jobs 1051636", many.Metrics)
	}
	if pdpa.Metrics != nil {
		t.Errorf("pdpa metrics = %v, want none", pdpa.Metrics)
	}
}

func TestMedianEven(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
}

// TestCompareGatesAgainstNewestPointThatHasIt: each gated benchmark is
// compared with the newest baseline that records it, so a newer point
// holding other benchmarks does not switch the gate off, and a gated
// benchmark that no baseline records fails the compare.
func TestCompareGatesAgainstNewestPointThatHasIt(t *testing.T) {
	cur, _, _ := parseBench(strings.NewReader(sampleOutput))
	serving := baseline{path: "BENCH_new.json", phase: Phase{Benchmarks: map[string]Result{
		"PoolSubmitAtFullHistory/hit": {NsPerOp: 4000, AllocsPerOp: 6},
	}}}
	sim := baseline{path: "BENCH_old.json", phase: Phase{Benchmarks: map[string]Result{
		"SingleRunPDPA": {NsPerOp: 24e6, AllocsPerOp: 4784, BytesPerOp: 1282948},
		"SingleRunIRIX": {NsPerOp: 37e6, AllocsPerOp: 1294, BytesPerOp: 769923},
	}}}
	tol := tolerances{ns: 1.5, allocs: 1.1, bytes: 1.2}
	gated := regexp.MustCompile("^(SingleRunPDPA|SingleRunIRIX)$")

	var out strings.Builder
	if !compare(&out, []baseline{serving, sim}, cur, gated, tol) {
		t.Fatalf("compare failed against the older point that records both:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BENCH_old.json") {
		t.Errorf("output does not name the baseline used:\n%s", out.String())
	}

	out.Reset()
	if compare(&out, []baseline{serving}, cur, gated, tol) {
		t.Fatalf("compare passed with no baseline recording the gated benchmarks:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL not in any baseline") {
		t.Errorf("output does not say why:\n%s", out.String())
	}

	// A regression against the newest point that has the benchmark fails,
	// even when an older point would pass it.
	newer := baseline{path: "BENCH_newer.json", phase: Phase{Benchmarks: map[string]Result{
		"SingleRunPDPA": {NsPerOp: 10e6, AllocsPerOp: 4784, BytesPerOp: 1282948},
	}}}
	out.Reset()
	if compare(&out, []baseline{newer, serving, sim}, cur, regexp.MustCompile("^SingleRunPDPA$"), tol) {
		t.Fatalf("a 2.5x ns/op regression against the newest point passed:\n%s", out.String())
	}
}
