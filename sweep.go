package pdpasim

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"pdpasim/internal/sim"
	"pdpasim/internal/sweep"
	"pdpasim/internal/system"
)

// SweepSpec describes a grid of simulations: every combination of the listed
// policies, mixes, loads, and seeds is run, and seed replicates are
// aggregated per (policy, mix, load) cell. The grid is the batch-first
// counterpart of one WorkloadSpec + Options pair: identical workload traces
// are generated once and replayed read-only under every policy, exactly as
// the paper's methodology replays one trace under each scheduler.
type SweepSpec struct {
	// Policies and Mixes are required; Loads defaults to {1.0} and Seeds to
	// {0}.
	Policies []Policy
	Mixes    []string
	Loads    []float64
	Seeds    []int64

	// NCPU, Window, and UniformRequest parameterize workload generation as
	// in WorkloadSpec (defaults: 60 CPUs, 300 s window).
	NCPU           int
	Window         time.Duration
	UniformRequest int

	// PDPA, FixedMPL, NoiseSigma, and NUMANodeSize configure each run as in
	// Options. Each run's noise seed is its workload seed, so a cell's
	// replicates differ in both trace and measurement noise.
	PDPA         PDPAParams
	FixedMPL     int
	NoiseSigma   float64
	NUMANodeSize int

	// Workers bounds the parallel worker pool; 0 means one worker per CPU
	// (never more than GOMAXPROCS). The result is byte-identical regardless
	// of the worker count.
	Workers int

	// Throughput > 1 enables coarse throughput mode for every run in the
	// grid, as in Options.Throughput: iterations are fused so very large
	// grids process far fewer events, with measurements sampled per fused
	// span — deterministic per seed, but not byte-equal to exact mode.
	Throughput int

	// Observer, when set, receives one "sweep_run" TraceEvent after every
	// completed run — the same Observer interface RunContext accepts. The
	// event's ID identifies the finished grid point
	// ("policy/mix/load/seed"), Done/Total report progress, and State is
	// "cell_done" when the run completed its cell's last replicate. Calls
	// are serialized but arrive in completion order.
	Observer Observer `json:"-"`
}

// CellResult is the aggregated result of one (policy, mix, load) cell:
// mean, standard deviation, and 95% confidence interval per metric across
// the seed replicates. It is the same schema the pdpad daemon's /v1/sweeps
// endpoint returns.
type CellResult = sweep.Cell

// CellAggregate is one aggregated metric inside a CellResult.
type CellAggregate = sweep.Aggregate

func (s SweepSpec) config() sweep.Config {
	policies := make([]system.PolicyKind, len(s.Policies))
	for i, p := range s.Policies {
		policies[i] = system.PolicyKind(p)
	}
	cfg := sweep.Config{
		Policies:       policies,
		Mixes:          append([]string(nil), s.Mixes...),
		Loads:          append([]float64(nil), s.Loads...),
		Seeds:          append([]int64(nil), s.Seeds...),
		NCPU:           s.NCPU,
		Window:         sim.FromSeconds(s.Window.Seconds()),
		UniformRequest: s.UniformRequest,
		FixedMPL:       s.FixedMPL,
		NoiseSigma:     s.NoiseSigma,
		NUMANodeSize:   s.NUMANodeSize,
		Workers:        s.Workers,
		Throughput:     s.Throughput,
	}
	if s.PDPA != (PDPAParams{}) {
		params := s.PDPA.internal()
		cfg.PDPAParams = &params
	}
	if observer := s.Observer; observer != nil {
		cfg.Progress = func(p sweep.Progress) {
			observer.Observe(sweepRunEvent(p))
		}
	}
	return cfg
}

// sweepRunEvent converts one sweep completion to its TraceEvent form. The
// grid-point ID is built with strconv appends rather than fmt — observers
// serialize the pool's workers, so the event path stays cheap.
func sweepRunEvent(p sweep.Progress) TraceEvent {
	id := make([]byte, 0, len(p.Task.Policy)+len(p.Task.Mix)+24)
	id = append(id, p.Task.Policy...)
	id = append(id, '/')
	id = append(id, p.Task.Mix...)
	id = append(id, '/')
	id = strconv.AppendFloat(id, p.Task.Load, 'f', 2, 64)
	id = append(id, '/')
	id = strconv.AppendInt(id, p.Task.Seed, 10)
	e := TraceEvent{
		Seq:   p.Done - 1,
		Kind:  "sweep_run",
		Job:   -1,
		ID:    string(id),
		Done:  p.Done,
		Total: p.Total,
	}
	if p.CellDone {
		e.State = "cell_done"
	}
	return e
}

// Validate checks the grid without running it: every policy and mix must be
// known and every numeric field non-negative.
func (s SweepSpec) Validate() error {
	for _, p := range s.Policies {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return s.config().Validate()
}

// Sweep runs the grid described by spec across a bounded worker pool and
// aggregates seed replicates per cell. The result is deterministic — byte-
// identical regardless of SweepSpec.Workers — because tasks are enumerated
// in a fixed order, results land by task index, and aggregation runs
// single-threaded after the pool drains. Cancelling ctx aborts in-flight
// simulations mid-event-loop and returns an error wrapping ctx.Err().
func Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res, err := sweep.Run(ctx, spec.config())
	if err != nil {
		return nil, err
	}
	return &SweepResult{Cells: res.Cells, Runs: res.Runs, res: res}, nil
}

// SweepResult is a completed sweep.
type SweepResult struct {
	// Cells holds one aggregated result per (policy, mix, load), in
	// mixes → loads → policies order.
	Cells []CellResult `json:"cells"`
	// Runs holds every individual run in grid order (each cell's seed
	// replicates are contiguous), in the same OutcomeJSON schema WriteJSON
	// and the daemon emit for single runs.
	Runs []OutcomeJSON `json:"runs"`

	res *sweep.Result
}

// Cell returns the aggregated cell for a (policy, mix, load) grid point, or
// nil if the point is not part of the grid.
func (r *SweepResult) Cell(policy Policy, mix string, load float64) *CellResult {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Policy == string(policy) && c.Mix == mix && c.Load == load {
			return c
		}
	}
	return nil
}

// WriteJSON writes the cells and runs as indented JSON.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the aggregated grid as CSV in long format: one row per
// cell and application, carrying the per-application response/execution
// aggregates next to the cell-level metrics (the raw material of the
// paper's Table 2 and Fig. 6 comparisons).
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"policy", "mix", "load", "n", "app",
		"response_s_mean", "response_s_ci95",
		"execution_s_mean", "execution_s_ci95",
		"makespan_s_mean", "makespan_s_ci95",
		"avg_mpl_mean", "utilization_mean",
		"migrations_mean", "avg_burst_ms_mean",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	for _, c := range r.Cells {
		apps := make([]string, 0, len(c.Response))
		for app := range c.Response {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		for _, app := range apps {
			row := []string{
				c.Policy, c.Mix, f(c.Load), fmt.Sprint(c.Makespan.N), app,
				f(c.Response[app].Mean), f(c.Response[app].CI95),
				f(c.Execution[app].Mean), f(c.Execution[app].CI95),
				f(c.Makespan.Mean), f(c.Makespan.CI95),
				f(c.AvgMPL.Mean), f(c.Utilization.Mean),
				f(c.Migrations.Mean), f(c.AvgBurstMS.Mean),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary renders one line per cell with the headline aggregates.
func (r *SweepResult) Summary() string {
	var sb strings.Builder
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, "%-13s %s load %3.0f%% (n=%d): makespan %6.0fs ±%.0f, avg ML %4.1f, util %3.0f%%\n",
			c.Policy, c.Mix, c.Load*100, c.Makespan.N,
			c.Makespan.Mean, c.Makespan.CI95, c.AvgMPL.Mean, c.Utilization.Mean*100)
	}
	return sb.String()
}
