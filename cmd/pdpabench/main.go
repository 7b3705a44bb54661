// Command pdpabench is pdpasim's end-to-end benchmark. It runs five
// workloads — the paper's simulator driven through pdpasim.Sweep, and the
// serving plane (runqueue → store → server → fleet) driven over loopback
// HTTP through the public client package — prints every end-to-end metric
// by name and unit, checks every output against an oracle, and exits 1 if
// any check fails.
//
// Usage, from the repository root:
//
//	bash cmd/pdpabench/run.sh                              # every workload
//	bash cmd/pdpabench/run.sh -workload serve-fresh -seed 2
//	bash cmd/pdpabench/run.sh -trace 1                     # per-layer breakdown
//
// run.sh builds the benchmark (its own module, see go.mod) and runs it;
// from this directory `go run . [flags]` does the same with the default
// build cache. Flags may be spelled -flag or --flag.
//
// # Workloads
//
// Each workload runs in a fresh child process (the command re-executes
// itself), so GC state and peak RSS never leak between workloads. Serving
// stacks are built from the public constructors exactly as cmd/pdpad builds
// them with its default flags — store.Open (sync 50 ms) → runqueue.New
// (base 4, max 8, warm-up 500 ms, queue 256, cache 128, trace limit 2000) →
// server.New — each on a real 127.0.0.1 listener. Load is a closed loop,
// because pdpad's callers wait for their results: two clients, or
// pdpaload's default eight on serve-mixed.
//
//	paper-sweep   pdpasim.Sweep over irix/equip/equal_eff/pdpa × w1–w4 ×
//	              loads 0.6/0.8/1.0 (48 cells, 300 s windows, exact mode),
//	              the four policies of one mix and load per call, twelve
//	              calls per seed, Workers = GOMAXPROCS. Only the simulator
//	              runs; serving-plane changes must not move it.
//	serve-fresh   A durable standalone stack. Each op submits a spec no
//	              other op used (grid cell i mod 48, 60 s window), follows
//	              it over SSE and GETs the result: a cache miss, a 1–4 ms
//	              simulation and a store append every time (the write path).
//	serve-cached  The same stack with 64 specs warmed during set-up. Each op
//	              POSTs a uniformly drawn hot spec (a cache hit) and GETs its
//	              ~13 KB result: HTTP and the cache only (the read path).
//	fleet-fresh   fleet.NewCoordinator (round_robin, heartbeat 2 s,
//	              max-requeues 3, durable) with two durable nodes joined by
//	              fleet.StartAgent, fed serve-fresh's op stream. The
//	              difference from serve-fresh is the coordinator hop.
//	serve-mixed   serve-fresh's stack under pdpaload's default traffic:
//	              eight clients, a quarter of the submissions repeating a
//	              recent spec, a quarter of the runs followed over SSE and
//	              the rest polled every 20 ms. Its 600 s-window runs at times
//	              outnumber the pool's base of 4 and wait for admission.
//
// A workload runs a fixed number of ops, rate × -seconds, sized so the
// commit that defined the benchmark needs about two thirds of -seconds for
// them. Every op runs; a window that reaches 3 × -seconds stops, and the
// ops it did not run count as failed. -seed derives every spec seed.
//
// # Metrics
//
// End-to-end (untraced run): setup_s, runs_per_s, latency_p50_ms,
// latency_p99_ms (nearest rank, sample count printed) and peak_rss_mb. The
// times and rates are reported at a fixed machine speed, measured by a
// yardstick probe that runs before set-up and after the stack has stopped
// (see yardstick.go); raw values are printed beside them. -trace 1
// reruns each workload in another process with timing wrappers around each
// layer's public entry points and prints the per-layer metrics, writes
// every span to <trace-dir>/<workload>.spans.jsonl and the metrics and
// per-layer self times to <trace-dir>/layers.json, and reports
// trace_overhead (untraced / traced runs_per_s). README.md lists every
// metric and the end-to-end metric each layer metric should move.
//
// # Checks
//
// Run outside each op's timed span: every sweep call returns its 4 cells and
// every 17th sweep run equals a serial pdpasim.Runner replay; every served
// run ends done and every 32nd new spec's result equals an in-process
// pdpasim.RunContext; every serve-mixed repeat gets its origin's result;
// every serve-cached submit is a cache hit and every GET body equals the
// warmed bytes; after a restart on the same stores a run reads back
// byte-identical; and no goroutine outlives a workload.
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 when a
// stack could not start or the flags are wrong. The last line of standard
// output is a JSON object with keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"pdpasim/internal/leakcheck"
)

const (
	exitOK    = 0
	exitCheck = 1
	exitStart = 2
	// childExitStart is how a child reports errStart to its parent; it is
	// not 2, which is also the Go runtime's exit status after a panic.
	childExitStart = 3
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// child runs one workload in this process; scratch is its private
	// directory. Both are set only by the parent.
	child   bool
	scratch string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdpabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run one workload (paper-sweep, serve-fresh, serve-cached, fleet-fresh, serve-mixed); empty runs all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated spec derives from")
	fs.Float64Var(&o.seconds, "seconds", 15, "run length each workload is sized for: its op count is rate × seconds, and the window takes about two thirds of it")
	fs.IntVar(&trace, "trace", 0, "1 reruns each workload traced and reports the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join("bench-artifacts", "pdpabench"), "directory for span files and layers.json")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.StringVar(&o.scratch, "scratch", "", "internal: the child's scratch directory")
	if err := fs.Parse(args); err != nil {
		return exitStart
	}
	o.trace = trace == 1
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "pdpabench: unexpected arguments %v\n", fs.Args())
		return exitStart
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "pdpabench: -trace must be 0 or 1")
		return exitStart
	case !(o.seconds > 0):
		fmt.Fprintln(stderr, "pdpabench: -seconds must be positive")
		return exitStart
	case o.child && (o.workload == "" || o.scratch == ""):
		fmt.Fprintln(stderr, "pdpabench: -child needs -workload and -scratch")
		return exitStart
	}
	if _, ok := workloadByName(o.workload); !ok && o.workload != "" {
		fmt.Fprintf(stderr, "pdpabench: unknown workload %q\n", o.workload)
		return exitStart
	}
	if o.child {
		return childMain(o, stdout, stderr)
	}
	return parentMain(o, stdout, stderr)
}

// report is what one workload process measured; the child prints it as
// JSON for the parent.
type report struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"checks,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Raw holds the end-to-end times and rates as measured, before they
	// are taken to the yardstick's nominal speed.
	Raw         map[string]float64 `json:"raw"`
	YardstickMS float64            `json:"yardstick_ms"`
	// Samples counts the values behind each percentile.
	Samples       map[string]int       `json:"samples"`
	Decomposition map[string]layerTime `json:"decomposition,omitempty"`
}

func childMain(o options, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w, _ := workloadByName(o.workload)
	e := newEnv(o, w)
	if o.trace {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "pdpabench: %v\n", err)
			return childExitStart
		}
	}
	baseline := leakcheck.Snapshot()
	e.cal.probe()
	if err := w.run(ctx, e); err != nil {
		fmt.Fprintf(stderr, "pdpabench: %s: %v\n", w.name, err)
		if errors.Is(err, errStart) {
			return childExitStart
		}
		e.check(false, "%v", err)
	}
	e.checkErr(baseline.Wait(leakcheck.Grace), "goroutines after the workload")
	runtime.GC() // so no collection of the workload's heap runs beside the probe
	e.cal.probe()
	e.publish()
	e.rep.EndToEnd = e.e2e.complete()
	if o.trace {
		e.rep.PerLayer = e.layers.complete()
	}
	if err := json.NewEncoder(stdout).Encode(e.rep); err != nil {
		fmt.Fprintf(stderr, "pdpabench: %v\n", err)
		return exitCheck
	}
	return exitOK
}

// result is the last line of the command's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parentMain(o options, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "pdpabench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g trace=%t\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), o.seed, o.seconds, o.trace)
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	res := result{Metrics: map[string]metric{}}
	for _, name := range names {
		rep, err := runChild(ctx, o, name, false, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "pdpabench: %s: %v\n", name, err)
			if errors.Is(err, errStart) {
				return exitStart
			}
			return exitCheck
		}
		reps := []*report{rep}
		metrics := rep.EndToEnd
		printReport(stdout, rep, endToEnd, metrics)
		if o.trace {
			trep, err := runChild(ctx, o, name, true, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "pdpabench: %s (traced): %v\n", name, err)
				if errors.Is(err, errStart) {
					return exitStart
				}
				return exitCheck
			}
			trep.PerLayer["trace_overhead"] = metric{
				Value: ratio(rep.EndToEnd["runs_per_s"].Value, trep.EndToEnd["runs_per_s"].Value),
				Unit:  "x",
			}
			reps = append(reps, trep)
			metrics = trep.PerLayer
			printReport(stdout, trep, perLayer, metrics)
			if err := mergeLayers(o.traceDir, trep); err != nil {
				fmt.Fprintf(stderr, "pdpabench: %v\n", err)
				return exitCheck
			}
		}
		for _, r := range reps {
			res.Attempted += r.Attempted
			res.Failed += r.Failed
		}
		for k, v := range metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "pdpabench: %v\n", err)
		return exitCheck
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return exitCheck
	}
	return exitOK
}

// runChild runs one workload in a fresh process and returns its report,
// with peak_rss_mb taken from the child's rusage. The child's scratch
// directory is removed however the child ends.
func runChild(ctx context.Context, o options, name string, traced bool, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errStart, err)
	}
	root := filepath.Join(o.traceDir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", errStart, err)
	}
	scratch, err := os.MkdirTemp(root, name+"-")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errStart, err)
	}
	defer os.RemoveAll(scratch)
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", tr, "-trace-dir", o.traceDir, "-scratch", scratch)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = time.Minute
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == childExitStart {
		return nil, errStart
	}
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var rep report
	if err := json.Unmarshal(lastLine(out.Bytes()), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.EndToEnd["peak_rss_mb"] = metric{Value: float64(ru.Maxrss) / 1024, Unit: "MB"} // Maxrss is in KiB on Linux
	}
	return &rep, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// printReport prints one workload's metrics in declaration order, with the
// sample counts behind the percentiles and any failed checks.
func printReport(w io.Writer, rep *report, decls []metricDecl, vals map[string]metric) {
	kind := "end-to-end"
	if rep.PerLayer != nil {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n%s — %s\n", rep.Workload, kind)
	bw := bufio.NewWriter(w)
	for _, d := range decls {
		v := vals[d.name]
		fmt.Fprintf(bw, "  %-34s %14.4f %-7s %s", d.name, v.Value, v.Unit, d.help)
		if raw, ok := rep.Raw[d.name]; ok && rep.PerLayer == nil {
			fmt.Fprintf(bw, " (raw %.4f)", raw)
		}
		fmt.Fprintln(bw)
	}
	if rep.PerLayer == nil {
		fmt.Fprintf(bw, "  times and rates are at the yardstick's nominal %v per round; this run's median round (before set-up and after the stack stopped) took %.3f ms\n",
			yardstickNominal, rep.YardstickMS)
	}
	keys := make([]string, 0, len(rep.Samples))
	for k := range rep.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(bw, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(bw, " %s=%d", k, rep.Samples[k])
	}
	fmt.Fprintf(bw, "\n  ops and checks: attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	for _, c := range rep.Checks {
		fmt.Fprintf(bw, "  FAIL: %s\n", c)
	}
	if len(rep.Decomposition) > 0 {
		names := make([]string, 0, len(rep.Decomposition))
		for n := range rep.Decomposition {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			return rep.Decomposition[names[i]].MedianShare > rep.Decomposition[names[j]].MedianShare
		})
		fmt.Fprintf(bw, "  self time per op      p40–p60 ms  share   ≥p99 ms  share\n")
		for _, n := range names {
			l := rep.Decomposition[n]
			fmt.Fprintf(bw, "  %-20s %10.3f %6.1f%% %9.3f %6.1f%%\n", n, l.MedianMS, 100*l.MedianShare, l.TailMS, 100*l.TailShare)
		}
	}
	bw.Flush()
}

// mergeLayers records a traced workload's metrics and self-time
// decomposition in <dir>/layers.json, keeping other workloads' entries.
func mergeLayers(dir string, rep *report) error {
	path := filepath.Join(dir, "layers.json")
	all := map[string]json.RawMessage{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			all = map[string]json.RawMessage{}
		}
	}
	entry, err := json.Marshal(struct {
		Metrics       map[string]metric    `json:"metrics"`
		Samples       map[string]int       `json:"samples"`
		Decomposition map[string]layerTime `json:"decomposition"`
	}{rep.PerLayer, rep.Samples, rep.Decomposition})
	if err != nil {
		return err
	}
	all[rep.Workload] = entry
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
