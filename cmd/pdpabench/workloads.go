package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pdpasim"
	"pdpasim/internal/metrics"
)

// workloadDef is one traffic mix the benchmark runs in its own process.
type workloadDef struct {
	name string
	// why is the reason the workload exists: which layers it stresses and
	// which it must leave alone.
	why string
	// rate sets the workload's fixed operation count, rate × -seconds,
	// sized so the commit that added the benchmark finishes the ops in about
	// two thirds of -seconds. Every op always runs, so both sides of a
	// comparison do the same work and build the same store.
	rate float64
	run  func(ctx context.Context, e *env) error
}

var workloads = []workloadDef{
	{
		name: "paper-sweep",
		why:  "pdpasim.Sweep over the paper's 48-cell grid, the 4 policies of one mix and load per call (300 s windows, Workers = GOMAXPROCS): simulator only, so serving changes must not move it",
		rate: 33,
		run:  runPaperSweep,
	},
	{
		name: "serve-fresh",
		why:  "durable pdpad at its defaults (base 4, max 8, queue 256, cache 128, sync 50 ms), 2 clients (assumed); every op a new spec: cache miss, simulation, store append and compaction (write path)",
		rate: 67,
		run:  func(ctx context.Context, e *env) error { return runFresh(ctx, e, false, false) },
	},
	{
		name: "serve-cached",
		why:  "same stack, 2 clients (assumed), 64 warmed hot specs: every op a cache hit with a ~13 KB result, so HTTP and the cache only; simulator or store changes must not move it (read path)",
		rate: 2000,
		run:  runServeCached,
	},
	{
		name: "fleet-fresh",
		why:  "coordinator (round_robin, heartbeat 2 s, max-requeues 3) + 2 durable nodes on serve-fresh's op stream, 2 clients (assumed): the difference from serve-fresh is the coordinator hop",
		rate: 67,
		run:  func(ctx context.Context, e *env) error { return runFresh(ctx, e, true, false) },
	},
	{
		name: "serve-mixed",
		why:  "serve-fresh's stack under pdpaload's default traffic: 8 clients, 25% of submits repeat a recent spec, 75% of runs polled every 20 ms; 600 s-window runs at times queue for admission",
		rate: 34,
		run:  func(ctx context.Context, e *env) error { return runFresh(ctx, e, false, true) },
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	// clients is the closed loop's size for serve-fresh, serve-cached and
	// fleet-fresh: each client waits for its result before sending the next
	// op, as pdpad's callers (scripts, sweeps, pdpaload) do. Two clients keep
	// the pool below its base of 4 workers, so these workloads measure a run's
	// own path; serve-mixed runs pdpaload's 8 clients to load the admission
	// path.
	clients = 2
	// windowCap is the timed window's safety cap, in multiples of -seconds.
	// A window normally ends when its last op returns; ops the cap keeps
	// from running count as failed, so metrics are never compared across
	// different amounts of work.
	windowCap = 3
	// A workload sets up at least setupRounds times, then again until
	// setupBudget has passed or maxSetupRounds ran: a few rounds of a slow
	// set-up, many of a millisecond one. setup_s is the median, and the
	// last round's stack serves the window.
	setupRounds    = 5
	setupBudget    = time.Second
	maxSetupRounds = 50
	// Oracle sampling: every 17th sweep run (17 is prime to the 4 policies
	// and 12 (mix, load) pairs, so the sample covers every cell) and every
	// 32nd served result are re-simulated in process and compared byte for
	// byte.
	sweepOracleEvery = 17
	serveOracleEvery = 32
	// maxCheckMessages bounds how many failure messages a report keeps.
	maxCheckMessages = 8
)

// env is one workload process's state.
type env struct {
	seed     int64
	seconds  float64
	n        int    // the workload's op count
	rounds   int    // minimum set-up rounds
	dir      string // private scratch directory for stores
	traceDir string
	t        *tracer // nil when untraced
	cal      *calibrator
	rep      *report
	e2e      *metricSet
	layers   *metricSet
}

// newEnv prepares workload w's process state from the flags.
func newEnv(o options, w workloadDef) *env {
	e := &env{
		seed: o.seed, seconds: o.seconds, n: opCount(w.rate, o.seconds), rounds: setupRounds,
		dir: o.scratch, traceDir: o.traceDir, cal: newCalibrator(),
		rep:    &report{Workload: w.name, Samples: map[string]int{}},
		e2e:    newMetricSet(endToEnd),
		layers: newMetricSet(perLayer),
	}
	if o.trace {
		e.t = newTracer()
	}
	return e
}

// moreSetup reports whether another set-up round should run, after the
// rounds in setups and the time since the first began.
func (e *env) moreSetup(setups []time.Duration, began time.Time) bool {
	return len(setups) < e.rounds || (time.Since(began) < setupBudget && len(setups) < maxSetupRounds)
}

// opCount is a workload's fixed op count for a window of seconds.
func opCount(rate, seconds float64) int {
	return max(1, int(math.Ceil(rate*seconds)))
}

func (e *env) limit() time.Duration {
	return time.Duration(windowCap * e.seconds * float64(time.Second))
}

// check records one correctness check; a failure counts as a failed
// operation and makes the benchmark exit 1.
func (e *env) check(ok bool, format string, args ...any) {
	e.rep.Attempted++
	if !ok {
		e.rep.Failed++
		e.note(fmt.Sprintf(format, args...))
	}
}

func (e *env) checkErr(err error, what string) {
	if err != nil {
		e.check(false, "%s: %v", what, err)
	} else {
		e.check(true, "")
	}
}

func (e *env) note(msg string) {
	if len(e.rep.Checks) < maxCheckMessages {
		e.rep.Checks = append(e.rep.Checks, msg)
	}
}

// window is what a closed loop measured.
type window struct {
	lat     []time.Duration // by op index
	errs    []error         // by op index
	ran     []bool          // by op index
	elapsed time.Duration
}

func (w *window) ok(i int) bool { return w.ran[i] && w.errs[i] == nil }

// succeeded returns the latencies of the ops that succeeded.
func (w *window) succeeded() []time.Duration {
	var out []time.Duration
	for i := range w.lat {
		if w.ok(i) {
			out = append(out, w.lat[i])
		}
	}
	return out
}

// closedLoop runs ops 0..n-1 from c goroutines, each issuing its next op
// only after the previous one returned, until all n have run. limit is a
// safety cap: no op starts after it has passed. op returns its own latency,
// so it can check its output after the clock stops.
func closedLoop(ctx context.Context, c, n int, limit time.Duration, op func(ctx context.Context, i int) (time.Duration, error)) *window {
	w := &window{lat: make([]time.Duration, n), errs: make([]error, n), ran: make([]bool, n)}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(limit)
	var wg sync.WaitGroup
	for range c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				w.lat[i], w.errs[i] = op(ctx, i)
				w.ran[i] = true
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// runWindow runs the workload's ops with the tracer recording.
func (e *env) runWindow(ctx context.Context, c int, op func(ctx context.Context, i int) (time.Duration, error)) *window {
	e.t.setActive(true)
	w := closedLoop(ctx, c, e.n, e.limit(), op)
	e.t.setActive(false)
	return w
}

// account adds the window's ops to the report, an op the cap kept from
// running as a failed one, and records the end-to-end values as measured;
// runsPerOp converts ops to simulation results.
func (e *env) account(w *window, runsPerOp int, setups []time.Duration) {
	done, skipped := 0, 0
	for i := range w.ran {
		e.rep.Attempted++
		switch {
		case !w.ran[i]:
			e.rep.Failed++
			skipped++
		case w.errs[i] != nil:
			e.rep.Failed++
			e.note(fmt.Sprintf("op %d: %v", i, w.errs[i]))
		default:
			done++
		}
	}
	if skipped > 0 {
		e.note(fmt.Sprintf("%d of %d ops not run: the window reached its %v cap", skipped, len(w.ran), e.limit()))
	}
	lat := w.succeeded()
	e.rep.Raw = map[string]float64{
		"setup_s":        percentile(setups, 50).Seconds(),
		"runs_per_s":     float64(done*runsPerOp) / w.elapsed.Seconds(),
		"latency_p50_ms": pctMS(lat, 50),
		"latency_p99_ms": pctMS(lat, 99),
	}
	e.rep.Samples["latency"] = len(lat)
	e.rep.Samples["setup"] = len(setups)
}

// publish sets the end-to-end metrics from the raw values, times and rates
// at the yardstick's nominal speed (see yardstick.go).
func (e *env) publish() {
	k := e.cal.scale()
	for name, v := range e.rep.Raw {
		if name == "runs_per_s" {
			e.e2e.set(name, v/k)
		} else {
			e.e2e.set(name, v*k)
		}
	}
	e.rep.YardstickMS = ms(percentile(e.cal.samples, 50))
	e.layers.set("yardstick_ms", e.rep.YardstickMS)
	e.rep.Samples["yardstick"] = len(e.cal.samples)
}

// sameJSON compares two JSON documents after json.Compact.
func sameJSON(want, got []byte) error {
	var a, b bytes.Buffer
	if err := json.Compact(&a, want); err != nil {
		return fmt.Errorf("oracle output: %w", err)
	}
	if err := json.Compact(&b, got); err != nil {
		return fmt.Errorf("result is not JSON: %w", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("result differs from the in-process oracle (%d vs %d bytes)", b.Len(), a.Len())
	}
	return nil
}

// oracleServed re-simulates spec in process with pdpasim.RunContext and
// compares its WriteJSON output with the result bytes a server returned.
func oracleServed(ctx context.Context, spec runSpec, got []byte) error {
	ws, opts := spec.facade()
	out, err := pdpasim.RunContext(ctx, ws, opts)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	var want bytes.Buffer
	if err := out.WriteJSON(&want); err != nil {
		return fmt.Errorf("oracle encode: %w", err)
	}
	return sameJSON(want.Bytes(), got)
}

// oracleSweepRun replays one sweep run serially on r and compares the
// OutcomeJSON values byte for byte.
func oracleSweepRun(r *pdpasim.Runner, spec runSpec, got pdpasim.OutcomeJSON) error {
	ws, opts := spec.facade()
	out, err := r.Run(ws, opts)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	want, err := json.Marshal(out.Export())
	if err != nil {
		return err
	}
	gotB, err := json.Marshal(got)
	if err != nil {
		return err
	}
	return sameJSON(want, gotB)
}

// paper-sweep's op is one pdpasim.Sweep call over the four policies of one
// (mix, load) pair, so twelve consecutive ops sweep the paper's 48-cell
// grid for one seed. Whole-grid calls would give about 44 latencies a run,
// whose p99 is the slowest call; quarter-second calls give about 500.
const (
	sweepGroups = gridCells / sweepRuns // (mix, load) pairs
	sweepRuns   = 4                     // runs per call: one per policy
)

// sweepCall is paper-sweep's op b: its grid group, the seed it sweeps with,
// and the call.
func sweepCall(seed int64, b int) (group int, cellSeed int64, spec pdpasim.SweepSpec) {
	group, cellSeed = b%sweepGroups, derive(seed, streamSweep, uint64(b/sweepGroups))
	return group, cellSeed, pdpasim.SweepSpec{
		Policies: gridPolicies, Mixes: []string{gridMixes[group/len(gridLoads)]},
		Loads: []float64{gridLoads[group%len(gridLoads)]},
		Seeds: []int64{cellSeed}, Workers: runtime.GOMAXPROCS(0),
	}
}

// sweepGrid is the whole 48-cell grid for one seed, paper-sweep's warm-up.
func sweepGrid(seed int64) pdpasim.SweepSpec {
	return pdpasim.SweepSpec{
		Policies: gridPolicies, Mixes: gridMixes, Loads: gridLoads,
		Seeds: []int64{seed}, Workers: runtime.GOMAXPROCS(0),
	}
}

// sweepBatch is what paper-sweep keeps of one Sweep call for its checks.
type sweepBatch struct {
	cells int
	runs  map[int]pdpasim.OutcomeJSON // by policy index, the sampled runs
}

func runPaperSweep(ctx context.Context, e *env) error {
	var setups []time.Duration
	for began := time.Now(); e.moreSetup(setups, began); {
		start := time.Now()
		if _, err := pdpasim.Sweep(ctx, sweepGrid(derive(e.seed, streamWarm, uint64(len(setups))))); err != nil {
			return fmt.Errorf("%w: warm-up sweep: %v", errStart, err)
		}
		setups = append(setups, time.Since(start))
	}

	batches := make([]sweepBatch, e.n)
	win := e.runWindow(ctx, 1, func(ctx context.Context, b int) (time.Duration, error) {
		_, _, spec := sweepCall(e.seed, b)
		ctx, end := e.t.start(ctx, "op", int64(b))
		start := time.Now()
		res, err := pdpasim.Sweep(ctx, spec)
		lat := time.Since(start)
		end()
		if err != nil {
			return lat, err
		}
		kept := sweepBatch{cells: len(res.Cells), runs: map[int]pdpasim.OutcomeJSON{}}
		for k := range res.Runs {
			if (b*sweepRuns+k)%sweepOracleEvery == 0 || e.t != nil && b < serialCalls {
				kept.runs[k] = res.Runs[k]
			}
		}
		batches[b] = kept
		return lat, nil
	})
	e.account(win, sweepRuns, setups)

	runner := pdpasim.NewRunner()
	for b, kept := range batches {
		if !win.ok(b) {
			continue
		}
		e.check(kept.cells == sweepRuns, "call %d: %d cells, want %d", b, kept.cells, sweepRuns)
		group, seed, _ := sweepCall(e.seed, b)
		for k, got := range kept.runs {
			if (b*sweepRuns+k)%sweepOracleEvery == 0 {
				e.checkErr(oracleSweepRun(runner, sweepSpec(group*sweepRuns+k, seed), got), fmt.Sprintf("call %d run %d", b, k))
			}
		}
	}
	if e.t == nil {
		return nil
	}
	return e.sweepLayers(win, batches)
}

// sweepLayers is paper-sweep's traced breakdown: a serial pass over the
// window's first serialCalls calls on one reused system.System, which must
// reproduce their runs byte for byte, against the same calls' Sweep wall
// time.
func (e *env) sweepLayers(win *window, batches []sweepBatch) error {
	var specs []runSpec
	var want []pdpasim.OutcomeJSON
	var sweepWall time.Duration
	for b := 0; b < min(serialCalls, len(batches)); b++ {
		if !win.ok(b) {
			return fmt.Errorf("call %d failed; the serial pass needs the first %d", b, serialCalls)
		}
		sweepWall += win.lat[b]
		group, seed, _ := sweepCall(e.seed, b)
		for k := 0; k < sweepRuns; k++ {
			specs = append(specs, sweepSpec(group*sweepRuns+k, seed))
			want = append(want, batches[b].runs[k])
		}
	}
	if len(specs) == 0 {
		return errors.New("no sweep call completed")
	}
	sp, err := serialPass(specs, e.t, func(i int, res *metrics.RunResult) error {
		exp, err := json.Marshal(res.ToExport())
		if err != nil {
			return err
		}
		got, err := json.Marshal(want[i])
		if err != nil {
			return err
		}
		return sameJSON(exp, got)
	})
	e.checkErr(err, "serial pass")
	sp.report(e.layers)
	e.layers.set("system.runs", float64(len(win.succeeded())*sweepRuns))
	e.layers.set("system.run_ms_p50", pctMS(sp.run, 50))
	e.layers.set("system.run_ms_p99", pctMS(sp.run, 99))
	workers := float64(runtime.GOMAXPROCS(0))
	e.layers.set("sweep.wall_s", sweepWall.Seconds())
	e.layers.set("sweep.serial_wall_s", sp.total.Seconds())
	e.layers.set("sweep.speedup", ratio(sp.total.Seconds(), sweepWall.Seconds()))
	e.layers.set("sweep.busy_share", ratio(sp.total.Seconds(), sweepWall.Seconds()*workers))
	e.rep.Samples["system.run"] = len(sp.run)
	return e.finishTrace(e.t.snapshot(), win)
}

// serialCalls is how many of paper-sweep's calls the traced serial pass
// replays: the whole grid for two seeds.
const serialCalls = 2 * sweepGroups
