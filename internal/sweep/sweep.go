// Package sweep is the parallel grid-execution engine: it fans a
// policies × mixes × loads × seeds grid out across a bounded worker pool,
// memoizes workload generation so each (mix, load, seed) trace is built once
// and shared read-only by every policy that replays it, and aggregates seed
// replicates into per-cell summaries (mean, stddev, 95% CI).
//
// The engine is deterministic: the grid is enumerated in a fixed order
// (mixes → loads → policies → seeds), workers write results by task index,
// and all aggregation happens single-threaded after the pool drains, so the
// output is byte-identical regardless of the worker count. Only the order of
// Progress callbacks depends on scheduling.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"pdpasim/internal/core"
	"pdpasim/internal/metrics"
	"pdpasim/internal/sim"
	"pdpasim/internal/stats"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// Config describes a sweep grid and how to execute it.
type Config struct {
	// Policies, Mixes, Loads, and Seeds span the grid. A cell is one
	// (policy, mix, load) combination; the seeds are its replicates.
	// Policies and Mixes are required; Loads defaults to {1.0} and Seeds to
	// {0} (one replicate of the default trace).
	Policies []system.PolicyKind
	Mixes    []string
	Loads    []float64
	Seeds    []int64

	// NCPU is the machine size (default 60); Window the submission window
	// (default 300 s). UniformRequest, when positive, forces every job's
	// request to that value.
	NCPU           int
	Window         sim.Time
	UniformRequest int

	// FixedMPL, NoiseSigma, PDPAParams, and NUMANodeSize configure each run
	// exactly as system.Config does. The workload seed doubles as the noise
	// seed, matching the repository's experiment methodology.
	FixedMPL     int
	NoiseSigma   float64
	PDPAParams   *core.Params
	NUMANodeSize int

	// Workers bounds the worker pool; 0 means runtime.NumCPU(). The pool
	// never exceeds GOMAXPROCS (or the task count): extra workers cannot run
	// in parallel anyway and their goroutines only thrash the scheduler and
	// the per-worker arenas.
	Workers int

	// Throughput > 1 enables coarse throughput mode for every run (see
	// system.Config.Throughput): iterations are fused so million-job grids
	// process far fewer events, at the cost of sampled — still
	// deterministic, but not byte-equal to exact mode — measurements.
	Throughput int

	// Progress, when set, is called after every completed run. Calls are
	// serialized but arrive in completion order, which depends on
	// scheduling.
	Progress func(Progress)
}

// Task is one point of the grid.
type Task struct {
	Policy system.PolicyKind
	Mix    string
	Load   float64
	Seed   int64
	// Cell is the index into Result.Cells of the cell this task replicates.
	Cell int
}

// Progress reports sweep advancement after one completed run.
type Progress struct {
	// Done runs out of Total are complete.
	Done, Total int
	// Task is the run that just finished.
	Task Task
	// CellDone reports that this run was its cell's last replicate;
	// CellsDone counts completed cells out of Cells.
	CellDone         bool
	CellsDone, Cells int
}

// Aggregate summarizes one metric across a cell's seed replicates.
type Aggregate struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	// CI95 is the half-width of the 95% confidence interval of the mean
	// (Student's t for small samples).
	CI95 float64 `json:"ci95"`
}

// Cell is the aggregated result of one (policy, mix, load) grid cell.
type Cell struct {
	Policy string  `json:"policy"`
	Mix    string  `json:"mix"`
	Load   float64 `json:"load"`
	Seeds  []int64 `json:"seeds"`

	Makespan    Aggregate `json:"makespan_s"`
	AvgMPL      Aggregate `json:"avg_mpl"`
	MaxMPL      Aggregate `json:"max_mpl"`
	Utilization Aggregate `json:"utilization"`
	Migrations  Aggregate `json:"migrations"`
	AvgBurstMS  Aggregate `json:"avg_burst_ms"`

	// Response and Execution aggregate the per-application average response
	// and execution times (seconds), keyed by application name.
	Response  map[string]Aggregate `json:"response_s_by_app"`
	Execution map[string]Aggregate `json:"execution_s_by_app"`
}

// Result is a completed sweep.
type Result struct {
	// Tasks enumerates the grid in execution order; Runs holds the
	// corresponding run exports, index-aligned with Tasks. Cells aggregates
	// the replicates per (policy, mix, load), in mixes → loads → policies
	// order.
	Tasks []Task
	Runs  []metrics.Export
	Cells []Cell

	raw []*metrics.RunResult
	idx map[taskKey]int
}

type taskKey struct {
	policy system.PolicyKind
	mix    string
	load   float64
	seed   int64
}

// Run returns the full result of one grid point, or nil if the point is not
// part of the grid.
func (r *Result) Run(policy system.PolicyKind, mix string, load float64, seed int64) *metrics.RunResult {
	if i, ok := r.idx[taskKey{policy, mix, load, seed}]; ok {
		return r.raw[i]
	}
	return nil
}

func (c Config) withDefaults() Config {
	if len(c.Loads) == 0 {
		c.Loads = []float64{workload.DefaultLoad}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{0}
	}
	if c.NCPU == 0 {
		c.NCPU = workload.DefaultNCPU
	}
	if c.Window == 0 {
		c.Window = workload.DefaultWindow
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if max := runtime.GOMAXPROCS(0); c.Workers > max {
		c.Workers = max
	}
	return c
}

// Validate checks the grid without running it: the axes must be non-empty
// (after defaulting) and every mix known.
func (c Config) Validate() error {
	if len(c.Policies) == 0 {
		return fmt.Errorf("sweep: no policies")
	}
	if len(c.Mixes) == 0 {
		return fmt.Errorf("sweep: no mixes")
	}
	for _, m := range c.Mixes {
		if _, err := workload.MixByName(m); err != nil {
			return err
		}
	}
	for _, l := range c.Loads {
		if l < 0 {
			return fmt.Errorf("sweep: negative load %v", l)
		}
	}
	switch {
	case c.NCPU < 0:
		return fmt.Errorf("sweep: negative machine size %d", c.NCPU)
	case c.Window < 0:
		return fmt.Errorf("sweep: negative submission window %v", c.Window)
	case c.UniformRequest < 0:
		return fmt.Errorf("sweep: negative uniform request %d", c.UniformRequest)
	case c.FixedMPL < 0:
		return fmt.Errorf("sweep: negative multiprogramming level %d", c.FixedMPL)
	case c.NUMANodeSize < 0:
		return fmt.Errorf("sweep: negative NUMA node size %d", c.NUMANodeSize)
	case c.Throughput < 0:
		return fmt.Errorf("sweep: negative throughput stride %d", c.Throughput)
	}
	if c.PDPAParams != nil {
		if err := c.PDPAParams.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// wcacheEntry memoizes one workload build: the first task that needs the
// trace generates it, every other task sharing the key blocks on the Once
// and then replays the same read-only Workload.
type wcacheEntry struct {
	once sync.Once
	w    *workload.Workload
	err  error
}

type wkey struct {
	mix  string
	load float64
	seed int64
}

// Run executes the grid. Workers pull tasks from a shared queue and write
// results by task index; aggregation happens after the pool drains, so the
// Result (and any serialization of it) is independent of Workers. On error
// or cancellation the remaining tasks are abandoned and the first error in
// task order is returned.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Enumerate the grid: cells in mixes → loads → policies order, each
	// cell's seeds contiguous in task order.
	var tasks []Task
	cells := 0
	for _, mix := range cfg.Mixes {
		for _, load := range cfg.Loads {
			for _, pk := range cfg.Policies {
				for _, seed := range cfg.Seeds {
					tasks = append(tasks, Task{Policy: pk, Mix: mix, Load: load, Seed: seed, Cell: cells})
				}
				cells++
			}
		}
	}

	// One memo entry per distinct trace; every policy replaying the same
	// (mix, load, seed) shares one generated Workload.
	memo := make(map[wkey]*wcacheEntry)
	for _, t := range tasks {
		k := wkey{t.Mix, t.Load, t.Seed}
		if memo[k] == nil {
			memo[k] = &wcacheEntry{}
		}
	}
	buildWorkload := func(k wkey) (*workload.Workload, error) {
		e := memo[k]
		e.once.Do(func() {
			mix, err := workload.MixByName(k.mix)
			if err != nil {
				e.err = err
				return
			}
			w, err := workload.Generate(workload.GenConfig{
				Mix: mix, Load: k.load, NCPU: cfg.NCPU, Window: cfg.Window, Seed: k.seed,
			})
			if err != nil {
				e.err = err
				return
			}
			if cfg.UniformRequest > 0 {
				w = w.WithUniformRequest(cfg.UniformRequest)
			}
			e.w = w
		})
		return e.w, e.err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	raw := make([]*metrics.RunResult, len(tasks))
	errs := make([]error, len(tasks))

	var (
		progressMu  sync.Mutex
		done        int
		cellsDone   int
		cellPending = make([]int, cells)
	)
	for _, t := range tasks {
		cellPending[t.Cell]++
	}
	reportProgress := func(t Task) {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		cellPending[t.Cell]--
		cellDone := cellPending[t.Cell] == 0
		if cellDone {
			cellsDone++
		}
		p := Progress{
			Done: done, Total: len(tasks), Task: t,
			CellDone: cellDone, CellsDone: cellsDone, Cells: cells,
		}
		progressMu.Unlock()
		cfg.Progress(p)
	}

	runTask := func(sys *system.System, i int) {
		t := tasks[i]
		w, err := buildWorkload(wkey{t.Mix, t.Load, t.Seed})
		if err != nil {
			errs[i] = err
			cancel()
			return
		}
		sc := system.Config{
			Workload:     w,
			Policy:       t.Policy,
			PDPAParams:   cfg.PDPAParams,
			FixedMPL:     cfg.FixedMPL,
			NoiseSigma:   cfg.NoiseSigma,
			Seed:         t.Seed,
			NUMANodeSize: cfg.NUMANodeSize,
			Throughput:   cfg.Throughput,
		}
		res, err := sys.RunContext(runCtx, sc)
		if err != nil {
			errs[i] = fmt.Errorf("%s/%s/load %.0f%%/seed %d: %w", t.Policy, t.Mix, t.Load*100, t.Seed, err)
			cancel()
			return
		}
		raw[i] = res
		reportProgress(t)
	}

	workers := cfg.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	// Dispatch longest-first (LPT): IRIX runs simulate every scheduling
	// quantum and still cost two to four times a space-sharing run (at
	// 300 s windows, the 12 runs of w1–w4 × three loads take about 68 ms
	// under IRIX against 17–35 ms under Equipartition, Equal_efficiency
	// and PDPA on a 2-vCPU host), so queuing them ahead of the rest keeps
	// the final stretch of the pool balanced.
	// Dispatch order cannot affect the output — results land at their task
	// index and aggregation happens after the join.
	order := make([]int, 0, len(tasks))
	for i, t := range tasks {
		if t.Policy == system.IRIX {
			order = append(order, i)
		}
	}
	for i, t := range tasks {
		if t.Policy != system.IRIX {
			order = append(order, i)
		}
	}
	// Workers pull contiguous chunks of the dispatch order instead of single
	// indexes: a few channel operations per worker rather than one per task,
	// so the pool's fixed overhead stays negligible even for grids of tiny
	// runs. Four chunks per worker keeps the tail balanced.
	chunk := len(order) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	type span struct{ lo, hi int } // half-open range into order
	queue := make(chan span, (len(order)+chunk-1)/chunk)
	for lo := 0; lo < len(order); lo += chunk {
		hi := lo + chunk
		if hi > len(order) {
			hi = len(order)
		}
		queue <- span{lo, hi}
	}
	close(queue)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reusable simulation environment per worker: every run in
			// this worker's chunks recycles the same arenas.
			sys := system.NewSystem()
			for sp := range queue {
				for _, i := range order[sp.lo:sp.hi] {
					if runCtx.Err() != nil {
						errs[i] = runCtx.Err()
						continue
					}
					runTask(sys, i)
				}
			}
		}()
	}
	wg.Wait()

	// Error selection is deterministic: the parent context's own error wins
	// (a cancelled sweep reports cancellation, not whichever task it
	// happened to abort), then the first failing task in grid order.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		// Tasks aborted because a peer failed report wrapped cancellations;
		// the peer's own error is the one to surface.
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Aggregation runs single-threaded over the index-ordered results: the
	// floating-point summation order — and therefore every output byte — is
	// fixed regardless of how tasks interleaved across workers.
	res := &Result{
		Tasks: tasks,
		Runs:  make([]metrics.Export, len(tasks)),
		Cells: make([]Cell, 0, cells),
		raw:   raw,
		idx:   make(map[taskKey]int, len(tasks)),
	}
	for i, t := range tasks {
		res.Runs[i] = raw[i].ToExport()
		res.idx[taskKey{t.Policy, t.Mix, t.Load, t.Seed}] = i
	}
	nseeds := len(cfg.Seeds)
	for c := 0; c < cells; c++ {
		first := tasks[c*nseeds]
		res.Cells = append(res.Cells, Summarize(
			string(first.Policy), first.Mix, first.Load, cfg.Seeds,
			res.Runs[c*nseeds:(c+1)*nseeds]))
	}
	return res, nil
}

// Summarize aggregates one cell's seed replicates. It is shared by the
// in-process engine and the pdpad daemon's sweep endpoint so both produce
// the same cell schema from the same run exports.
func Summarize(policy, mix string, load float64, seeds []int64, runs []metrics.Export) Cell {
	c := Cell{
		Policy: policy, Mix: mix, Load: load,
		Seeds:     append([]int64(nil), seeds...),
		Response:  map[string]Aggregate{},
		Execution: map[string]Aggregate{},
	}
	var makespan, avgMPL, maxMPL, util, migr, burst stats.Summary
	respVals := map[string]*stats.Summary{}
	execVals := map[string]*stats.Summary{}
	for _, r := range runs {
		makespan.Add(r.MakespanS)
		avgMPL.Add(r.AvgMPL)
		maxMPL.Add(float64(r.MaxMPL))
		util.Add(r.Util)
		migr.Add(float64(r.Migrations))
		burst.Add(r.AvgBurstMS)
		addByApp(respVals, r.Response)
		addByApp(execVals, r.Execution)
	}
	c.Makespan = aggregate(&makespan)
	c.AvgMPL = aggregate(&avgMPL)
	c.MaxMPL = aggregate(&maxMPL)
	c.Utilization = aggregate(&util)
	c.Migrations = aggregate(&migr)
	c.AvgBurstMS = aggregate(&burst)
	for app, s := range respVals {
		c.Response[app] = aggregate(s)
	}
	for app, s := range execVals {
		c.Execution[app] = aggregate(s)
	}
	return c
}

func addByApp(dst map[string]*stats.Summary, vals map[string]float64) {
	for app, v := range vals {
		s := dst[app]
		if s == nil {
			s = &stats.Summary{}
			dst[app] = s
		}
		s.Add(v)
	}
}

func aggregate(s *stats.Summary) Aggregate {
	return Aggregate{N: s.N(), Mean: s.Mean(), Stddev: s.Stddev(), CI95: s.ConfidenceInterval95()}
}
