// Command benchgate records and gates benchmark results.
//
// It is the repo's stdlib-only stand-in for benchstat: `record` parses the
// output of `go test -bench -benchmem` and stores a named phase (pre/post/...)
// into a BENCH_<date>.json trajectory point; `compare` parses a fresh bench
// run and fails when a gated benchmark regressed beyond tolerance against the
// newest committed point that records it, or when no point records it.
//
//	go test -run '^$' -bench 'SingleRun|Sweep$' -benchmem -count 5 . | tee bench.txt
//	benchgate record -out BENCH_2026-08-05.json -phase post bench.txt
//	benchgate compare -baseline 'BENCH_*.json' bench.txt
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
	"path/filepath"
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
  benchgate compare -baseline 'BENCH_*.json' [-phase post]
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
	baseline := fs.String("baseline", "", "baseline BENCH_<date>.json, or a glob of them (required)")
	phase := fs.String("phase", "post", "baseline phase to compare against")
	match := fs.String("match", "^(SingleRunPDPA|SingleRunEqualEff|SingleRunIRIX|SingleRunIRIXSettled|Sweep(/|$))", "regexp of benchmarks to gate")
	var tol tolerances
	fs.Float64Var(&tol.ns, "ns-tol", 1.5, "fail when ns/op exceeds baseline by this factor")
	fs.Float64Var(&tol.allocs, "alloc-tol", 1.1, "fail when allocs/op exceeds baseline by this factor")
	fs.Float64Var(&tol.bytes, "bytes-tol", 1.2, "fail when B/op exceeds baseline by this factor")
	fs.Parse(args)
	if *baseline == "" {
		usage()
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fatalf("bad -match: %v", err)
	}
	bases := loadBaselines(*baseline, *phase)
	cur, _, _ := parseBench(openInput(fs.Arg(0)))
	if len(cur) == 0 {
		fatalf("no benchmark lines found in input")
	}
	if !compare(os.Stdout, bases, cur, re, tol) {
		fmt.Println("\nbenchgate: FAIL against", *baseline)
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: no regression against", *baseline)
}

// baseline is one committed trajectory point's phase to gate against.
type baseline struct {
	path  string
	phase Phase
}

// tolerances are compare's per-column regression factors.
type tolerances struct{ ns, allocs, bytes float64 }

// loadBaselines reads every file the pattern matches (a plain path matches
// itself) and returns their phase, newest first: BENCH_<date>.json names
// sort by date. Files without the phase are skipped.
func loadBaselines(pattern, phase string) []baseline {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		fatalf("bad -baseline: %v", err)
	}
	if len(paths) == 0 {
		fatalf("-baseline %q matches no file", pattern)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	var out []baseline
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		var f File
		if err := json.Unmarshal(raw, &f); err != nil {
			fatalf("parse %s: %v", path, err)
		}
		if p, ok := f.Phases[phase]; ok {
			out = append(out, baseline{path: path, phase: p})
		}
	}
	if len(out) == 0 {
		fatalf("no file matching %q has a phase %q", pattern, phase)
	}
	return out
}

// compare gates every current benchmark the regexp matches against the
// newest baseline that records it, prints one line per benchmark, and
// reports whether all passed. A gated benchmark that no baseline records
// fails: a gate with nothing to compare against checks nothing.
func compare(w io.Writer, bases []baseline, cur map[string]Result, re *regexp.Regexp, tol tolerances) bool {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(w, "no current benchmark matches -match %q\n", re)
		return false
	}

	ok := true
	fmt.Fprintf(w, "%-28s %14s %14s %8s   %s\n", "benchmark", "base", "current", "ratio", "gate")
	for _, name := range names {
		c := cur[name]
		var b Result
		from := ""
		for _, base := range bases {
			if r, found := base.phase.Benchmarks[name]; found {
				b, from = r, base.path
				break
			}
		}
		if from == "" {
			fmt.Fprintf(w, "%-28s %14s %14s %8s   FAIL not in any baseline\n", name, "-",
				fmtNs(c.NsPerOp), "-")
			ok = false
			continue
		}
		verdict := "ok"
		if nsRatio := c.NsPerOp / b.NsPerOp; nsRatio > tol.ns {
			verdict = fmt.Sprintf("FAIL ns/op %.2fx > %.2fx", nsRatio, tol.ns)
			ok = false
		}
		if b.AllocsPerOp > 0 {
			if allocRatio := c.AllocsPerOp / b.AllocsPerOp; allocRatio > tol.allocs {
				verdict = fmt.Sprintf("FAIL allocs/op %.0f vs %.0f (%.2fx > %.2fx)",
					c.AllocsPerOp, b.AllocsPerOp, allocRatio, tol.allocs)
				ok = false
			}
		}
		if b.BytesPerOp > 0 {
			if bytesRatio := c.BytesPerOp / b.BytesPerOp; bytesRatio > tol.bytes {
				verdict = fmt.Sprintf("FAIL B/op %.0f vs %.0f (%.2fx > %.2fx)",
					c.BytesPerOp, b.BytesPerOp, bytesRatio, tol.bytes)
				ok = false
			}
		}
		fmt.Fprintf(w, "%-28s %14s %14s %7.2fx   %s (allocs %.0f→%.0f, %s)\n",
			name, fmtNs(b.NsPerOp), fmtNs(c.NsPerOp), c.NsPerOp/b.NsPerOp, verdict,
			b.AllocsPerOp, c.AllocsPerOp, from)
	}
	return ok
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
