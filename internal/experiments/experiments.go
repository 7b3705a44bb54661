// Package experiments defines one runnable experiment per table and figure
// of the paper's evaluation (Section 5), plus ablations over the PDPA design
// parameters. Each experiment builds its workloads, runs the policies it
// compares, and formats the same rows or series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pdpasim/internal/app"
	"pdpasim/internal/metrics"
	"pdpasim/internal/sim"
	"pdpasim/internal/stats"
	"pdpasim/internal/sweep"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// Options control experiment execution.
type Options struct {
	// Seeds are the trace seeds to average over (default {1, 2, 3}).
	Seeds []int64
	// NCPU is the machine size (default 60, the paper's configuration).
	NCPU int
	// Window is the submission window (default 300 s).
	Window sim.Time
	// Loads are the demand levels (default 60%, 80%, 100%).
	Loads []float64
	// Workers bounds the worker pool of the experiments that run a policy ×
	// load × seed grid through runMatrix: Figs. 4, 6, 9 and 10 and their
	// charts (Charts). Every other experiment runs serially. 0 = one
	// worker per CPU; results are identical at any setting.
	Workers int
}

func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if o.NCPU == 0 {
		o.NCPU = workload.DefaultNCPU
	}
	if o.Window == 0 {
		o.Window = workload.DefaultWindow
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.6, 0.8, 1.0}
	}
	return o
}

// Quick returns reduced options for fast smoke runs and benchmarks.
func Quick() Options {
	return Options{Seeds: []int64{1}, Loads: []float64{0.6, 1.0}}
}

// Result is a completed experiment: an identifier matching the paper
// artifact and the formatted reproduction.
type Result struct {
	ID    string
	Title string
	Text  string
}

func (r Result) String() string {
	return fmt.Sprintf("### %s — %s\n\n%s", r.ID, r.Title, r.Text)
}

// Spec describes an available experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Options) (Result, error)
}

// All returns every experiment in paper order.
func All() []Spec {
	return []Spec{
		{"fig3", "Speedup curves of the applications", Fig3},
		{"tab1", "Workload characteristics", Table1},
		{"fig4", "Workload 1: response and execution time", Fig4},
		{"fig5", "Execution views for workload 1 under IRIX and PDPA", Fig5},
		{"tab2", "IRIX versus PDPA and Equipartition stability (w1, load=100%)", Table2},
		{"fig6", "Workload 2: response and execution time", Fig6},
		{"fig7", "Workload 2 at multiprogramming levels 2, 3, and 4", Fig7},
		{"fig8", "Multiprogramming level decided by PDPA (w2, load=100%)", Fig8},
		{"fig9", "Workload 3: response and execution time", Fig9},
		{"tab3", "Workload 3 with apsi not tuned (request=30, load=60%)", Table3},
		{"fig10", "Workload 4: response and execution time", Fig10},
		{"tab4", "Workload 4 not tuned (all requests=30, load=60%)", Table4},
		{"abl1", "Ablation: target efficiency sweep", AblationTargetEff},
		{"abl2", "Ablation: allocation step sweep", AblationStep},
		{"abl3", "Ablation: measurement-noise sensitivity", AblationNoise},
		{"abl4", "Ablation: malleability (rigid MPI / hybrid / malleable)", AblationMalleability},
		{"ext1", "Extended baselines: Gang and Dynamic", ExtendedBaselines},
		{"ext2", "Sensitivity: seed-sweep confidence intervals", Sensitivity},
		{"ext3", "Memory-migration stability study", MemoryStability},
		{"ext4", "Monitoring path: compiler-inserted vs binary-only", MonitoringPath},
		{"ext5", "Arrival burstiness sensitivity", Burstiness},
		{"ext6", "Load-adaptive target efficiency", AdaptiveTarget},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// genWorkload builds the standard workload for a mix/load/seed.
func genWorkload(o Options, mix workload.Mix, load float64, seed int64) (*workload.Workload, error) {
	return workload.Generate(workload.GenConfig{
		Mix: mix, Load: load, NCPU: o.NCPU, Window: o.Window, Seed: seed,
	})
}

// cell aggregates one (policy, load, class, metric) value across seeds.
type cell struct{ sum stats.Summary }

// matrix holds averaged per-class response/execution times for a set of
// policy × load runs.
type matrix struct {
	o        Options
	policies []system.PolicyKind
	// values[policy][load][class][metric]
	resp  map[system.PolicyKind]map[float64]map[app.Class]*cell
	exec  map[system.PolicyKind]map[float64]map[app.Class]*cell
	alloc map[system.PolicyKind]map[float64]map[app.Class]*cell
	// lastRuns keeps one representative RunResult per (policy, load).
	lastRuns map[system.PolicyKind]map[float64]*metrics.RunResult
}

func newMatrix(o Options, policies []system.PolicyKind) *matrix {
	m := &matrix{
		o: o, policies: policies,
		resp:     map[system.PolicyKind]map[float64]map[app.Class]*cell{},
		exec:     map[system.PolicyKind]map[float64]map[app.Class]*cell{},
		alloc:    map[system.PolicyKind]map[float64]map[app.Class]*cell{},
		lastRuns: map[system.PolicyKind]map[float64]*metrics.RunResult{},
	}
	return m
}

func (m *matrix) add(kind system.PolicyKind, load float64, res *metrics.RunResult) {
	put := func(store map[system.PolicyKind]map[float64]map[app.Class]*cell, vals map[app.Class]float64) {
		if store[kind] == nil {
			store[kind] = map[float64]map[app.Class]*cell{}
		}
		if store[kind][load] == nil {
			store[kind][load] = map[app.Class]*cell{}
		}
		for c, v := range vals {
			cl := store[kind][load][c]
			if cl == nil {
				cl = &cell{}
				store[kind][load][c] = cl
			}
			cl.sum.Add(v)
		}
	}
	put(m.resp, res.ResponseByClass())
	put(m.exec, res.ExecutionByClass())
	put(m.alloc, res.AvgAllocByClass())
	if m.lastRuns[kind] == nil {
		m.lastRuns[kind] = map[float64]*metrics.RunResult{}
	}
	m.lastRuns[kind][load] = res
}

func (m *matrix) mean(store map[system.PolicyKind]map[float64]map[app.Class]*cell,
	kind system.PolicyKind, load float64, c app.Class) float64 {
	if store[kind] == nil || store[kind][load] == nil || store[kind][load][c] == nil {
		return 0
	}
	return store[kind][load][c].sum.Mean()
}

// runMatrix executes the mix under every policy × load × seed on the
// parallel sweep engine: each (load, seed) workload is generated once and
// shared by every policy, and the grid fans out across Options.Workers.
func runMatrix(o Options, mix workload.Mix, policies []system.PolicyKind) (*matrix, error) {
	m := newMatrix(o, policies)
	res, err := sweep.Run(context.Background(), sweep.Config{
		Policies: policies,
		Mixes:    []string{mix.Name},
		Loads:    o.Loads,
		Seeds:    o.Seeds,
		NCPU:     o.NCPU,
		Window:   o.Window,
		Workers:  o.Workers,
	})
	if err != nil {
		return nil, err
	}
	// Accumulate seed-major, exactly the order the serial loop used, so the
	// floating-point sums — and every rendered digit — are unchanged.
	for _, seed := range o.Seeds {
		for _, load := range o.Loads {
			for _, pk := range policies {
				m.add(pk, load, res.Run(pk, mix.Name, load, seed))
			}
		}
	}
	return m, nil
}

// policyLabel renders the paper's policy names.
func policyLabel(pk system.PolicyKind) string {
	switch pk {
	case system.IRIX:
		return "IRIX"
	case system.Equipartition:
		return "Equip"
	case system.EqualEfficiency:
		return "Equal_eff"
	case system.PDPA:
		return "PDPA"
	case system.Dynamic:
		return "Dynamic"
	case system.Gang:
		return "Gang"
	case system.AdaptivePDPA:
		return "PDPA-adaptive"
	}
	return string(pk)
}

// renderResponseExec formats the Fig. 4/6/9/10 data: per class, average
// response and execution time per policy and load.
func (m *matrix) renderResponseExec(classes []app.Class) string {
	var sb strings.Builder
	loads := append([]float64(nil), m.o.Loads...)
	sort.Float64s(loads)
	for _, c := range classes {
		fmt.Fprintf(&sb, "%s — average response time (s)\n", c)
		m.renderOne(&sb, m.resp, c, loads)
		fmt.Fprintf(&sb, "%s — average execution time (s)\n", c)
		m.renderOne(&sb, m.exec, c, loads)
	}
	return sb.String()
}

func (m *matrix) renderOne(sb *strings.Builder, store map[system.PolicyKind]map[float64]map[app.Class]*cell, c app.Class, loads []float64) {
	fmt.Fprintf(sb, "  %-10s", "load")
	for _, l := range loads {
		fmt.Fprintf(sb, "%10.0f%%", l*100)
	}
	sb.WriteByte('\n')
	for _, pk := range m.policies {
		fmt.Fprintf(sb, "  %-10s", policyLabel(pk))
		for _, l := range loads {
			fmt.Fprintf(sb, "%11.1f", m.mean(store, pk, l, c))
		}
		sb.WriteByte('\n')
	}
	sb.WriteByte('\n')
}
