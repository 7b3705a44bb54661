package pdpasim

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/metrics"
	"pdpasim/internal/obs"
	"pdpasim/internal/sim"
	"pdpasim/internal/system"
	"pdpasim/internal/trace"
	"pdpasim/internal/workload"
)

// Policy selects a scheduling regime.
type Policy string

// The four scheduling regimes of the paper's evaluation.
const (
	// PDPA is the paper's contribution: performance-driven space sharing
	// with a coordinated multiprogramming level.
	PDPA Policy = "pdpa"
	// Equipartition divides the machine equally among running jobs,
	// reallocating at arrivals and completions.
	Equipartition Policy = "equip"
	// EqualEfficiency allocates by extrapolated efficiency on every
	// performance report.
	EqualEfficiency Policy = "equal_eff"
	// IRIX models the native time-sharing scheduler with the SGI-MP
	// runtime.
	IRIX Policy = "irix"
	// Dynamic is McCann/Vaswani/Zahorjan's eager-reallocation policy, an
	// extended baseline from the related-work literature.
	Dynamic Policy = "dynamic"
	// Gang is classic gang scheduling (Ousterhout matrix), an extended
	// baseline.
	Gang Policy = "gang"
	// AdaptivePDPA is PDPA with a load-driven target efficiency — the
	// paper's sketched variant (Section 4.1).
	AdaptivePDPA Policy = "pdpa_adaptive"
)

// Policies lists the paper's four regimes in presentation order.
func Policies() []Policy { return []Policy{IRIX, Equipartition, EqualEfficiency, PDPA} }

// ExtendedPolicies adds the related-work baselines this repository also
// implements (gang scheduling and Dynamic).
func ExtendedPolicies() []Policy {
	return []Policy{IRIX, Gang, Equipartition, EqualEfficiency, Dynamic, PDPA}
}

// Validate reports whether p names a known scheduling regime. Both cmd/
// pdpasim and the pdpad daemon reject specs through this single check.
func (p Policy) Validate() error {
	switch p {
	case PDPA, Equipartition, EqualEfficiency, IRIX, Dynamic, Gang, AdaptivePDPA:
		return nil
	}
	return fmt.Errorf("pdpasim: unknown policy %q (valid: irix, gang, equip, equal_eff, dynamic, pdpa, pdpa_adaptive)", string(p))
}

// ParsePolicy converts a policy name — as it appears in flags, JSON
// payloads, and results tables — to a Policy. It is the single entry point
// through which external policy names enter the system: flag parsing, the
// daemon API, and sweep specs all round-trip through it. Names are matched
// case-insensitively and with surrounding whitespace ignored.
func ParsePolicy(s string) (Policy, error) {
	p := Policy(strings.ToLower(strings.TrimSpace(s)))
	if err := p.Validate(); err != nil {
		return "", err
	}
	return p, nil
}

// String returns the canonical wire name of the policy ("pdpa", "equip", …),
// implementing fmt.Stringer.
func (p Policy) String() string { return string(p) }

// MarshalText implements encoding.TextMarshaler; policies serialize as their
// canonical wire name. Marshaling an unknown policy is an error, so invalid
// values cannot leak into JSON output.
func (p Policy) MarshalText() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return []byte(p), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParsePolicy, so a
// Policy field decoded from JSON (for example by the pdpad daemon) is
// validated at decode time.
func (p *Policy) UnmarshalText(text []byte) error {
	parsed, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// PDPAParams mirrors the paper's policy parameters (Section 4.2).
type PDPAParams struct {
	// TargetEff is the efficiency allocated processors must sustain (0.7).
	TargetEff float64
	// HighEff is the "very good" threshold (0.9).
	HighEff float64
	// Step is the per-transition allocation step (4).
	Step int
	// BaseMPL is the default multiprogramming level (4).
	BaseMPL int
	// MaxStableTransitions bounds STABLE exits (ping-pong guard).
	MaxStableTransitions int
}

// DefaultPDPAParams returns the paper's parameter values.
func DefaultPDPAParams() PDPAParams {
	p := core.DefaultParams()
	return PDPAParams{
		TargetEff: p.TargetEff, HighEff: p.HighEff, Step: p.Step,
		BaseMPL: p.BaseMPL, MaxStableTransitions: p.MaxStableTransitions,
	}
}

func (p PDPAParams) internal() core.Params {
	return core.Params{
		TargetEff: p.TargetEff, HighEff: p.HighEff, Step: p.Step,
		BaseMPL: p.BaseMPL, MaxStableTransitions: p.MaxStableTransitions,
	}
}

// WorkloadSpec describes a workload to generate: one of the paper's four
// mixes, calibrated to a demand level.
type WorkloadSpec struct {
	// Mix is "w1", "w2", "w3", or "w4" (Table 1).
	Mix string
	// Load is the estimated processor demand fraction (0.6, 0.8, 1.0).
	// Defaults to 1.0.
	Load float64
	// NCPU is the machine size. Defaults to 60 (the paper's setup).
	NCPU int
	// Window is the submission window. Defaults to 300 s.
	Window time.Duration
	// Seed drives the arrival process. The same spec always yields the same
	// trace.
	Seed int64
	// UniformRequest, when positive, forces every job's processor request
	// to that value — the paper's "not tuned" experiments use 30.
	UniformRequest int
}

// Validate checks the spec without generating the workload: the mix must be
// known and every numeric field non-negative. It is the validation path
// shared by cmd/pdpasim flag checking and the pdpad daemon's request
// admission.
func (s WorkloadSpec) Validate() error {
	if _, err := workload.MixByName(s.Mix); err != nil {
		return err
	}
	switch {
	case s.Load < 0:
		return fmt.Errorf("pdpasim: negative load %v", s.Load)
	case s.NCPU < 0:
		return fmt.Errorf("pdpasim: negative machine size %d", s.NCPU)
	case s.Window < 0:
		return fmt.Errorf("pdpasim: negative submission window %v", s.Window)
	case s.UniformRequest < 0:
		return fmt.Errorf("pdpasim: negative uniform request %d", s.UniformRequest)
	}
	return nil
}

func (s WorkloadSpec) build() (*workload.Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	mix, err := workload.MixByName(s.Mix)
	if err != nil {
		return nil, err
	}
	load := s.Load
	if load == 0 {
		load = workload.DefaultLoad
	}
	ncpu := s.NCPU
	if ncpu == 0 {
		ncpu = workload.DefaultNCPU
	}
	window := sim.FromSeconds(s.Window.Seconds())
	if s.Window == 0 {
		window = workload.DefaultWindow
	}
	w, err := workload.Generate(workload.GenConfig{
		Mix: mix, Load: load, NCPU: ncpu, Window: window, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	if s.UniformRequest > 0 {
		w = w.WithUniformRequest(s.UniformRequest)
	}
	return w, nil
}

// WriteSWF generates the workload and writes it as a Standard Workload
// Format trace, the format the paper's trace files use.
func (s WorkloadSpec) WriteSWF(out io.Writer) error {
	w, err := s.build()
	if err != nil {
		return err
	}
	return w.WriteSWF(out)
}

// Options configure a simulation run.
type Options struct {
	// Policy selects the scheduling regime (required).
	Policy Policy
	// PDPA overrides the PDPA parameters (zero value = paper defaults).
	PDPA PDPAParams
	// FixedMPL is the queuing system's fixed multiprogramming level for the
	// non-PDPA regimes (default 4).
	FixedMPL int
	// NoiseSigma is the SelfAnalyzer measurement noise (default 1%;
	// negative disables).
	NoiseSigma float64
	// Seed drives measurement noise.
	Seed int64
	// KeepTrace retains the full execution trace so Outcome.RenderTrace
	// works.
	KeepTrace bool
	// NUMANodeSize groups the machine's CPUs into NUMA nodes of this size
	// (the Origin 2000's node boards); 0 or 1 keeps a flat SMP.
	NUMANodeSize int
	// DecisionTrace enables decision-trace recording: every policy state
	// transition, admission decision, reallocation, and preemption is
	// retained and available from Outcome.DecisionTrace. Zero (the default)
	// disables recording; a positive value caps the retained events (later
	// events are counted as dropped); DecisionTraceUnlimited retains
	// everything. Disabled tracing costs nothing on the simulation hot
	// paths.
	DecisionTrace int
	// Throughput > 1 enables coarse throughput mode: each application fuses
	// up to Throughput undisturbed iterations into one simulation event, so
	// very large workloads process far fewer events. Scheduling decisions
	// are unchanged — any reallocation or penalty collapses the fusion at
	// the exact iteration it lands in — but performance measurements are
	// sampled once per fused span instead of once per iteration, so results
	// are deterministic per seed yet not byte-equal to exact mode. IRIX
	// runs ignore the setting. 0 or 1 keeps exact per-iteration simulation.
	Throughput int
	// Observer, when set, receives every decision-trace event live as the
	// simulation produces it — the streaming counterpart of DecisionTrace,
	// and the same hook Sweep accepts. Calls are
	// synchronous and strictly ordered within the run. An Observer alone
	// (DecisionTrace == 0) streams without retaining.
	Observer Observer `json:"-"`
}

// Validate checks the options: the policy must be known, numeric fields
// non-negative, and explicit PDPA parameters self-consistent.
func (o Options) Validate() error {
	if err := o.Policy.Validate(); err != nil {
		return err
	}
	if o.FixedMPL < 0 {
		return fmt.Errorf("pdpasim: negative multiprogramming level %d", o.FixedMPL)
	}
	if o.NUMANodeSize < 0 {
		return fmt.Errorf("pdpasim: negative NUMA node size %d", o.NUMANodeSize)
	}
	if o.DecisionTrace < DecisionTraceUnlimited {
		return fmt.Errorf("pdpasim: invalid decision-trace limit %d", o.DecisionTrace)
	}
	if o.Throughput < 0 {
		return fmt.Errorf("pdpasim: negative throughput stride %d", o.Throughput)
	}
	if (o.Policy == PDPA || o.Policy == AdaptivePDPA) && o.PDPA != (PDPAParams{}) {
		if err := o.PDPA.internal().Validate(); err != nil {
			return err
		}
	}
	return nil
}

// config translates the options into the internal system configuration.
func (o Options) config(w *workload.Workload) system.Config {
	cfg := system.Config{
		Workload:     w,
		Policy:       system.PolicyKind(o.Policy),
		FixedMPL:     o.FixedMPL,
		NoiseSigma:   o.NoiseSigma,
		Seed:         o.Seed,
		KeepBursts:   o.KeepTrace,
		NUMANodeSize: o.NUMANodeSize,
		Throughput:   o.Throughput,
	}
	if (o.Policy == PDPA || o.Policy == AdaptivePDPA) && o.PDPA != (PDPAParams{}) {
		params := o.PDPA.internal()
		cfg.PDPAParams = &params
	}
	return cfg
}

// JobOutcome is the result of one job.
type JobOutcome struct {
	ID        int
	App       string
	Request   int
	Submit    time.Duration // relative to the run start
	Start     time.Duration
	End       time.Duration
	Response  time.Duration
	Execution time.Duration
	// AvgProcessors is the job's time-averaged processor allocation.
	AvgProcessors float64
}

// Outcome is the result of one run.
type Outcome struct {
	Policy   string
	Workload string
	Load     float64
	Jobs     []JobOutcome
	// Makespan is the completion time of the last job.
	Makespan time.Duration
	// MaxMPL and AvgMPL describe the multiprogramming level reached.
	MaxMPL int
	AvgMPL float64
	// Migrations, AvgBurst, BurstsPerCPU, and Utilization are the
	// scheduling-stability statistics of Table 2.
	Migrations   int
	AvgBurst     time.Duration
	BurstsPerCPU float64
	Utilization  float64

	res   *metrics.RunResult
	trace *obs.Trace
}

// DecisionTrace returns the run's recorded decision trace, or nil when the
// run was executed without Options.DecisionTrace (an Observer alone streams
// events but retains none).
func (o *Outcome) DecisionTrace() *DecisionTrace {
	if o.trace == nil || !o.trace.Retains() {
		return nil
	}
	return &DecisionTrace{tr: o.trace}
}

// RunContext generates the workload described by spec and executes it under
// the given options, aborting promptly — mid-simulation — when ctx is
// cancelled or its deadline passes. The returned error then wraps ctx.Err().
// A run that completes is byte-identical to the same run without a context:
// cancellation checks never perturb the event order.
func RunContext(ctx context.Context, spec WorkloadSpec, opts Options) (*Outcome, error) {
	return NewRunner().RunContext(ctx, spec, opts)
}

// RunSWFContext replays a Standard Workload Format trace (as produced by
// WorkloadSpec.WriteSWF, or any SWF v2 input trace using the same field
// conventions) under the given options, with the same cancellation contract
// as RunContext.
func RunSWFContext(ctx context.Context, in io.Reader, opts Options) (*Outcome, error) {
	return NewRunner().RunSWFContext(ctx, in, opts)
}

// Runner executes runs back to back while recycling the simulation's
// internal arenas — the event heap, trace recorder, machine model, queuing
// slabs, per-job runtime state, and the manager and policy of every
// regime it has run — so steady-state runs allocate almost nothing. Results
// are byte-identical to the package-level RunContext, which runs on a new
// Runner: every simulator component is initialized only by its Reset, the
// same call a fresh component is built with.
//
// A Runner is NOT safe for concurrent use. Callers that fan runs out across
// goroutines should give each its own Runner (Sweep does this internally,
// one per worker). The zero value is ready to use.
type Runner struct {
	sys system.System
}

// NewRunner returns an empty Runner; its arenas are grown by the first run
// and recycled by every run after it.
func NewRunner() *Runner { return &Runner{} }

// Run generates the workload described by spec and executes it under opts,
// recycling this Runner's arenas. See RunContext for the semantics.
func (r *Runner) Run(spec WorkloadSpec, opts Options) (*Outcome, error) {
	return r.RunContext(context.Background(), spec, opts)
}

// RunContext is Run with cancellation, identical to the package-level
// RunContext but reusing this Runner's arenas.
func (r *Runner) RunContext(ctx context.Context, spec WorkloadSpec, opts Options) (*Outcome, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	w, err := spec.build()
	if err != nil {
		return nil, err
	}
	return r.runWorkload(ctx, w, opts)
}

// RunSWFContext replays a Standard Workload Format trace, identical to the
// package-level RunSWFContext but reusing this Runner's arenas.
func (r *Runner) RunSWFContext(ctx context.Context, in io.Reader, opts Options) (*Outcome, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	w, err := workload.ParseSWF(in)
	if err != nil {
		return nil, err
	}
	return r.runWorkload(ctx, w, opts)
}

func (r *Runner) runWorkload(ctx context.Context, w *workload.Workload, opts Options) (*Outcome, error) {
	cfg := opts.config(w)
	tr := newRunTrace(opts.DecisionTrace, opts.Observer)
	cfg.Trace = tr
	res, err := r.sys.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := newOutcome(res)
	out.trace = tr
	return out, nil
}

func newOutcome(res *metrics.RunResult) *Outcome {
	out := &Outcome{
		Policy:       res.Policy,
		Workload:     res.Workload,
		Load:         res.Load,
		Makespan:     res.Makespan.Duration(),
		MaxMPL:       res.MaxMPL,
		AvgMPL:       res.AvgMPL,
		Migrations:   res.Stability.Migrations,
		AvgBurst:     res.Stability.AvgBurst.Duration(),
		BurstsPerCPU: res.Stability.AvgBurstsPerCPU,
		Utilization:  res.Stability.Utilization,
		res:          res,
	}
	for _, j := range res.Jobs {
		out.Jobs = append(out.Jobs, JobOutcome{
			ID:            j.ID,
			App:           j.Class.String(),
			Request:       j.Request,
			Submit:        j.Submit.Duration(),
			Start:         j.Start.Duration(),
			End:           j.End.Duration(),
			Response:      j.Response().Duration(),
			Execution:     j.Execution().Duration(),
			AvgProcessors: j.AvgAlloc,
		})
	}
	return out
}

// ResponseByApp returns the average response time per application name.
func (o *Outcome) ResponseByApp() map[string]time.Duration {
	return secondsByApp(o.res.ResponseByClass())
}

// ExecutionByApp returns the average execution time per application name.
func (o *Outcome) ExecutionByApp() map[string]time.Duration {
	return secondsByApp(o.res.ExecutionByClass())
}

func secondsByApp(src map[app.Class]float64) map[string]time.Duration {
	out := make(map[string]time.Duration, len(src))
	for c, v := range src {
		out[c.String()] = time.Duration(v * float64(time.Second))
	}
	return out
}

// ProcessorsByApp returns the average allocation per application name.
func (o *Outcome) ProcessorsByApp() map[string]float64 {
	src := o.res.AvgAllocByClass()
	out := make(map[string]float64, len(src))
	for c, v := range src {
		out[c.String()] = v
	}
	return out
}

// MPLTimeline returns the multiprogramming level as (time, level) steps.
func (o *Outcome) MPLTimeline() []MPLPoint {
	tl := o.res.MPLTimeline
	out := make([]MPLPoint, len(tl))
	for i, p := range tl {
		out[i] = MPLPoint{At: p.At.Duration(), Level: p.Value}
	}
	return out
}

// MPLPoint is one step of the multiprogramming-level timeline.
type MPLPoint struct {
	At    time.Duration
	Level int
}

// RenderTrace draws the per-CPU execution timeline as ASCII art (Fig. 5
// style): one row per CPU, letters identifying applications. It requires
// Options.KeepTrace. from/to bound the window (zero to means the whole run).
func (o *Outcome) RenderTrace(width int, from, to time.Duration) string {
	if o.res.Recorder == nil {
		return "(trace not kept: run with Options.KeepTrace)"
	}
	classOf := map[int]rune{}
	for _, j := range o.res.Jobs {
		classOf[j.ID] = j.Class.Letter()
	}
	return o.res.Recorder.Render(trace.RenderOptions{
		Width: width,
		From:  sim.FromSeconds(from.Seconds()),
		To:    sim.FromSeconds(to.Seconds()),
		Label: func(job int) rune {
			if r, ok := classOf[job]; ok {
				return r
			}
			return '?'
		},
	})
}

// WriteCSV writes the per-job results as CSV (one row per job).
func (o *Outcome) WriteCSV(w io.Writer) error { return o.res.WriteCSV(w) }

// OutcomeJSON is the JSON schema of one run result. It is the single
// Outcome-shaped schema in the system: Outcome.WriteJSON emits it, the pdpad
// daemon's /v1/runs result field contains it, and sweep cells aggregate over
// it. The golden file testdata/outcome_schema.golden.json pins the field
// set; changing it is an API break for daemon clients.
type OutcomeJSON = metrics.Export

// OutcomeJobJSON is one job inside OutcomeJSON.
type OutcomeJobJSON = metrics.ExportJob

// Export returns the outcome in its wire form — the exact value WriteJSON
// serializes and the daemon returns.
func (o *Outcome) Export() OutcomeJSON { return o.res.ToExport() }

// WriteJSON writes the full result as indented JSON in the OutcomeJSON
// schema.
func (o *Outcome) WriteJSON(w io.Writer) error { return o.res.WriteJSON(w) }

// WriteParaver writes the execution trace in the Paraver (.prv) format the
// paper's visualizations use. It requires Options.KeepTrace.
func (o *Outcome) WriteParaver(w io.Writer) error {
	if o.res.Recorder == nil {
		return fmt.Errorf("pdpasim: trace not kept (run with Options.KeepTrace)")
	}
	return o.res.Recorder.WriteParaver(w)
}

// WriteChromeTracing writes the execution trace in the Chrome trace-event
// format (loadable in chrome://tracing or Perfetto). It requires
// Options.KeepTrace.
func (o *Outcome) WriteChromeTracing(w io.Writer) error {
	if o.res.Recorder == nil {
		return fmt.Errorf("pdpasim: trace not kept (run with Options.KeepTrace)")
	}
	names := map[int]string{}
	for _, j := range o.res.Jobs {
		names[j.ID] = fmt.Sprintf("%s #%d", j.Class, j.ID)
	}
	return o.res.Recorder.WriteChromeTracing(w, func(job int) string {
		if n, ok := names[job]; ok {
			return n
		}
		return fmt.Sprintf("job %d", job)
	})
}

// Summary renders the per-class averages as a compact table.
func (o *Outcome) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s (load %.0f%%): makespan %.0fs, max ML %d, avg ML %.1f, util %.0f%%\n",
		o.Policy, o.Workload, o.Load*100, o.Makespan.Seconds(), o.MaxMPL, o.AvgMPL, o.Utilization*100)
	resp := o.ResponseByApp()
	exec := o.ExecutionByApp()
	procs := o.ProcessorsByApp()
	names := make([]string, 0, len(resp))
	for name := range resp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "  %-8s response %7.1fs  execution %7.1fs  processors %5.1f\n",
			name, resp[name].Seconds(), exec[name].Seconds(), procs[name])
	}
	return sb.String()
}
