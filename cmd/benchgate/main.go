// Command benchgate records and gates benchmark results.
//
// It is the repo's stdlib-only stand-in for benchstat: `record` parses the
// output of `go test -bench -benchmem` and stores a named phase (pre/post/...)
// into a BENCH_<date>.json trajectory point; `compare` parses a fresh bench
// run and fails when a gated benchmark regressed beyond tolerance against the
// committed baseline.
//
//	go test -run '^$' -bench 'SingleRun|Sweep$' -benchmem -count 5 . | tee bench.txt
//	benchgate record -out BENCH_2026-08-05.json -phase post bench.txt
//	benchgate compare -baseline BENCH_2026-08-05.json bench.txt
//
// Wall-clock per op is gated loosely (CI machines are noisy); allocs/op and
// B/op are near-deterministic and gated tightly — allocs/op catches an
// accidental return to map-and-copy hot paths, and B/op catches the
// complementary regression where the allocation count stays flat but each
// allocation balloons (an oversized slab, a copy instead of a handoff).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
	// Metrics holds the median of each custom b.ReportMetric column, by
	// unit (e.g. "jobs", "compactions/op").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Phase is one labeled set of results (e.g. "pre" and "post" around an
// optimization PR).
type Phase struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// File is the BENCH_<date>.json schema.
type File struct {
	Schema string           `json:"schema"`
	Date   string           `json:"date"`
	CPU    string           `json:"cpu,omitempty"`
	GoEnv  string           `json:"go,omitempty"`
	Phases map[string]Phase `json:"phases"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  benchgate record  -out BENCH_<date>.json [-phase post] [-note s] [bench.txt]
  benchgate compare -baseline BENCH_<date>.json [-phase post]
                    [-match regexp] [-ns-tol 1.5] [-alloc-tol 1.1]
                    [-bytes-tol 1.2] [bench.txt]
`)
	os.Exit(2)
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "", "JSON file to create or merge into (required)")
	phase := fs.String("phase", "post", "phase label to store the results under")
	note := fs.String("note", "", "free-form note stored with the phase")
	fs.Parse(args)
	if *out == "" {
		usage()
	}
	results, cpu, goEnv := parseBench(openInput(fs.Arg(0)))
	if len(results) == 0 {
		fatalf("no benchmark lines found in input")
	}

	f := File{Schema: "pdpasim-bench/1", Phases: map[string]Phase{}}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			fatalf("existing %s is not valid: %v", *out, err)
		}
	}
	if f.Date == "" {
		f.Date = time.Now().UTC().Format("2006-01-02")
	}
	if cpu != "" {
		f.CPU = cpu
	}
	if goEnv != "" {
		f.GoEnv = goEnv
	}
	if f.Phases == nil {
		f.Phases = map[string]Phase{}
	}
	f.Phases[*phase] = Phase{Note: *note, Benchmarks: results}

	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatalf("encode: %v", err)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("recorded %d benchmarks into %s (phase %q)\n", len(results), *out, *phase)
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	baseline := fs.String("baseline", "", "baseline BENCH_<date>.json (required)")
	phase := fs.String("phase", "post", "baseline phase to compare against")
	match := fs.String("match", "^(SingleRunPDPA|SingleRunIRIX|Sweep(/|$))", "regexp of benchmarks to gate")
	nsTol := fs.Float64("ns-tol", 1.5, "fail when ns/op exceeds baseline by this factor")
	allocTol := fs.Float64("alloc-tol", 1.1, "fail when allocs/op exceeds baseline by this factor")
	bytesTol := fs.Float64("bytes-tol", 1.2, "fail when B/op exceeds baseline by this factor")
	fs.Parse(args)
	if *baseline == "" {
		usage()
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fatalf("bad -match: %v", err)
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fatalf("%v", err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		fatalf("parse %s: %v", *baseline, err)
	}
	base, ok := f.Phases[*phase]
	if !ok {
		fatalf("%s has no phase %q (has: %s)", *baseline, *phase, strings.Join(phaseNames(f), ", "))
	}
	cur, _, _ := parseBench(openInput(fs.Arg(0)))
	if len(cur) == 0 {
		fatalf("no benchmark lines found in input")
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fatalf("no current benchmark matches -match %q", *match)
	}

	failed := false
	fmt.Printf("%-28s %14s %14s %8s   %s\n", "benchmark", "base", "current", "ratio", "gate")
	for _, name := range names {
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("%-28s %14s %14s %8s   new (not in baseline)\n", name, "-",
				fmtNs(cur[name].NsPerOp), "-")
			continue
		}
		c := cur[name]
		verdict := "ok"
		if nsRatio := c.NsPerOp / b.NsPerOp; nsRatio > *nsTol {
			verdict = fmt.Sprintf("FAIL ns/op %.2fx > %.2fx", nsRatio, *nsTol)
			failed = true
		}
		if b.AllocsPerOp > 0 {
			if allocRatio := c.AllocsPerOp / b.AllocsPerOp; allocRatio > *allocTol {
				verdict = fmt.Sprintf("FAIL allocs/op %.0f vs %.0f (%.2fx > %.2fx)",
					c.AllocsPerOp, b.AllocsPerOp, allocRatio, *allocTol)
				failed = true
			}
		}
		if b.BytesPerOp > 0 {
			if bytesRatio := c.BytesPerOp / b.BytesPerOp; bytesRatio > *bytesTol {
				verdict = fmt.Sprintf("FAIL B/op %.0f vs %.0f (%.2fx > %.2fx)",
					c.BytesPerOp, b.BytesPerOp, bytesRatio, *bytesTol)
				failed = true
			}
		}
		fmt.Printf("%-28s %14s %14s %7.2fx   %s (allocs %.0f→%.0f)\n",
			name, fmtNs(b.NsPerOp), fmtNs(c.NsPerOp), c.NsPerOp/b.NsPerOp, verdict,
			b.AllocsPerOp, c.AllocsPerOp)
	}
	if failed {
		fmt.Println("\nbenchgate: REGRESSION against", *baseline)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: no regression against", *baseline)
}

func phaseNames(f File) []string {
	var out []string
	for k := range f.Phases {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func openInput(path string) io.Reader {
	if path == "" || path == "-" {
		return os.Stdin
	}
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	return f
}

// benchName matches a result line; its columns after the iteration count
// are read as value-unit pairs, so custom b.ReportMetric columns (e.g.
// "1051636 jobs") anywhere in the line don't detach the -benchmem columns
// that follow them.
var benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+\S+ ns/op`)

// parseBench reads `go test -bench` output and aggregates repeated runs of
// each benchmark: median ns/op (robust to a noisy sample), max B/op and
// allocs/op (deterministic; max catches a flaky extra allocation), and the
// median of each custom metric.
func parseBench(r io.Reader) (map[string]Result, string, string) {
	raw, err := io.ReadAll(r)
	if err != nil {
		fatalf("read input: %v", err)
	}
	type samples struct {
		ns, bytes, allocs []float64
		metrics           map[string][]float64
	}
	acc := map[string]*samples{}
	var cpu, goos, goarch string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(v)
			continue
		}
		if v, ok := strings.CutPrefix(line, "goos:"); ok {
			goos = strings.TrimSpace(v)
			continue
		}
		if v, ok := strings.CutPrefix(line, "goarch:"); ok {
			goarch = strings.TrimSpace(v)
			continue
		}
		mm := benchName.FindStringSubmatch(line)
		if mm == nil {
			continue
		}
		name := strings.TrimPrefix(mm[1], "Benchmark")
		s := acc[name]
		if s == nil {
			s = &samples{metrics: map[string][]float64{}}
			acc[name] = s
		}
		cols := strings.Fields(line)
		for i := 2; i+1 < len(cols); i += 2 {
			switch v, unit := parseF(cols[i]), cols[i+1]; unit {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			default:
				s.metrics[unit] = append(s.metrics[unit], v)
			}
		}
	}
	out := map[string]Result{}
	for name, s := range acc {
		r := Result{
			NsPerOp:     median(s.ns),
			BytesPerOp:  maxOf(s.bytes),
			AllocsPerOp: maxOf(s.allocs),
			Samples:     len(s.ns),
		}
		for unit, v := range s.metrics {
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = median(v)
		}
		out[name] = r
	}
	goEnv := ""
	if goos != "" || goarch != "" {
		goEnv = goos + "/" + goarch
	}
	return out, cpu, goEnv
}

func parseF(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		fatalf("bad number %q: %v", s, err)
	}
	return v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func maxOf(v []float64) float64 {
	out := 0.0
	for _, x := range v {
		if x > out {
			out = x
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
