// Package system wires the whole NANOS execution environment together — the
// discrete-event engine, the machine model, the queuing system, a resource
// manager, and one runtime + SelfAnalyzer per job — and runs a workload to
// completion under a chosen scheduling policy, producing a metrics.RunResult.
//
// This is the simulation counterpart of the paper's testbed: an SGI Origin
// 2000 running the NANOS QS/RM with IRIX, Equipartition, Equal_efficiency,
// or PDPA (Section 5).
//
// Two entry points exist. Run/RunContext run on a new System per call. A
// System built with NewSystem keeps every arena — engine heap, trace
// recorder, machine, queuing slabs, per-job runtimes, each regime's manager
// and policy — alive across calls, so steady-state runs allocate almost
// nothing. Every component has one initializer, its Reset (or Init), and
// its New constructor is that call on a zero value, so both entry points
// produce byte-identical results for the same Config.
package system

import (
	"context"
	"fmt"
	"strconv"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/machine"
	"pdpasim/internal/memory"
	"pdpasim/internal/metrics"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/obs"
	"pdpasim/internal/policy"
	"pdpasim/internal/qs"
	"pdpasim/internal/rm"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
	"pdpasim/internal/stats"
	"pdpasim/internal/trace"
	"pdpasim/internal/workload"
)

// PolicyKind selects the scheduling regime for a run.
type PolicyKind string

// The four regimes of the evaluation, plus two extended baselines from the
// related-work literature.
const (
	PDPA            PolicyKind = "pdpa"
	Equipartition   PolicyKind = "equip"
	EqualEfficiency PolicyKind = "equal_eff"
	IRIX            PolicyKind = "irix"
	// Dynamic is McCann/Vaswani/Zahorjan's eager reallocation policy
	// (related work, Section 2).
	Dynamic PolicyKind = "dynamic"
	// Gang is classic gang scheduling (Ousterhout matrix).
	Gang PolicyKind = "gang"
	// AdaptivePDPA is PDPA with a load-driven target efficiency — the
	// paper's "alternatively, it is dynamically set depending on the load
	// of the system" (Section 4.1).
	AdaptivePDPA PolicyKind = "pdpa_adaptive"
)

// The run defaults a zero Config gets: the paper's fixed multiprogramming
// level and the SelfAnalyzer's measurement noise.
const (
	DefaultMPL   = 4
	DefaultNoise = 0.01
)

// PolicyKinds lists the paper's four regimes in presentation order.
func PolicyKinds() []PolicyKind {
	return []PolicyKind{IRIX, Equipartition, EqualEfficiency, PDPA}
}

// ExtendedPolicyKinds adds the related-work baselines this repository also
// implements.
func ExtendedPolicyKinds() []PolicyKind {
	return []PolicyKind{IRIX, Gang, Equipartition, EqualEfficiency, Dynamic, PDPA}
}

// Config parameterizes one run.
type Config struct {
	// Workload is the job stream to execute (required).
	Workload *workload.Workload
	// Policy selects the scheduling regime (required).
	Policy PolicyKind
	// PDPAParams overrides the PDPA parameters (nil = DefaultParams).
	PDPAParams *core.Params
	// FixedMPL is the queuing system's fixed multiprogramming level for
	// IRIX, Equipartition, and Equal_efficiency (default 4, the paper's
	// setting). PDPA runs with no fixed level: its own admission policy
	// governs.
	FixedMPL int
	// NoiseSigma is the SelfAnalyzer measurement noise (default 0.01).
	// Negative disables noise entirely.
	NoiseSigma float64
	// Seed drives measurement noise.
	Seed int64
	// KeepBursts stores the full burst history for trace rendering (Fig. 5).
	// Aggregate stability statistics are collected regardless.
	KeepBursts bool
	// MaxSimTime aborts runs that fail to drain (default: the last job's
	// submission time plus 50000 s, so multi-month throughput-mode windows
	// get proportionally long deadlines).
	MaxSimTime sim.Time
	// Profiles overrides the application profiles (nil = app.ProfileFor).
	Profiles func(app.Class) *app.Profile
	// NUMANodeSize groups the machine's CPUs into NUMA nodes of this size
	// (the Origin 2000's node boards); 0 or 1 keeps a flat SMP. Space
	// sharing then packs partitions compactly per node.
	NUMANodeSize int
	// Memory enables the CC-NUMA page-placement model (requires
	// NUMANodeSize > 1 and a space-sharing policy): applications slow down
	// while their pages are remote, and the migration daemon heals
	// placement over time — the paper's Section 5.1.1 stability argument.
	Memory bool
	// BinaryOnly runs every application through the binary-only monitoring
	// path (Section 3.1): the outer-loop structure must first be discovered
	// by the Dynamic Periodicity Detector, so measurements — and the
	// policy's knowledge — arrive later than with compiler-inserted
	// instrumentation.
	BinaryOnly bool
	// Throughput > 1 enables coarse throughput mode: each application fuses
	// up to Throughput undisturbed iterations into one simulation event, so
	// million-job sweeps process far fewer events. Scheduling decisions are
	// unchanged — any reallocation or penalty collapses the fusion at the
	// exact iteration it lands in — but performance measurements are sampled
	// once per fused span instead of once per iteration, so results are
	// deterministic per seed yet not byte-equal to exact mode. IRIX runs
	// ignore the setting (its per-quantum rate changes need every
	// iteration). 0 or 1 keeps exact per-iteration simulation.
	Throughput int
	// Trace, when non-nil, receives the run's decision-trace events: run and
	// job lifecycle, performance reports, policy state transitions,
	// admission decisions, reallocations, and preemptions. Events are
	// recorded from inside the event loop, so the trace is deterministic for
	// a fixed seed. Nil-checked on every hot path: a run without a trace
	// pays nothing.
	Trace *obs.Trace
}

// The CC-NUMA page-placement model's parameters (Config.Memory).
const (
	// memRemotePenalty is the slowdown of a fully remote working set, the
	// Origin 2000's modest NUMA ratio.
	memRemotePenalty = 1.3
	// memMigrationRate is the fraction of misplaced pages the migration
	// daemon moves per second: hot pages migrate within seconds.
	memMigrationRate = 0.2
	// memTick is how often locality is re-evaluated.
	memTick = sim.Second
)

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Workload == nil || len(out.Workload.Jobs) == 0 {
		return out, fmt.Errorf("system: empty workload")
	}
	switch out.Policy {
	case PDPA, Equipartition, EqualEfficiency, IRIX, Dynamic, Gang, AdaptivePDPA:
	default:
		return out, fmt.Errorf("system: unknown policy %q", out.Policy)
	}
	if out.FixedMPL == 0 {
		out.FixedMPL = DefaultMPL
	}
	if out.NoiseSigma == 0 {
		out.NoiseSigma = DefaultNoise
	}
	if out.NoiseSigma < 0 {
		out.NoiseSigma = 0
	}
	if out.MaxSimTime <= 0 {
		// The watchdog budget is 50000 s of drain time past the last
		// submission, however long the submission window itself is.
		last := sim.Time(0)
		for _, j := range out.Workload.Jobs {
			if j.Submit > last {
				last = j.Submit
			}
		}
		out.MaxSimTime = last + 50000*sim.Second
	}
	if out.Profiles == nil {
		out.Profiles = app.ProfileFor
	}
	if out.Throughput < 0 {
		out.Throughput = 0
	}
	return out, nil
}

// Run executes the workload under the configured policy and returns the
// measured results. The same workload (same trace) run under different
// policies sees identical submissions, the paper's repeatability setup.
func Run(cfg Config) (*metrics.RunResult, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the simulation aborts promptly (the
// engine checks ctx between events) when ctx is cancelled or times out,
// returning ctx's error. A background context makes it identical to Run —
// including byte-identical results, since the check never perturbs the
// event order.
func RunContext(ctx context.Context, cfg Config) (*metrics.RunResult, error) {
	return NewSystem().RunContext(ctx, cfg)
}

// runState is the per-run context every jobTrack points back to.
type runState struct {
	sys       *System
	eng       *sim.Engine
	mgr       rm.Manager
	queue     *qs.QueuingSystem
	memDone   func(id int)
	tr        *obs.Trace
	completed int
}

// jobSlot bundles the per-job simulation state that can be recycled the
// moment a job completes: its runtime, SelfAnalyzer, and noise stream. The
// free list therefore holds one slot per concurrently-running job (the peak
// multiprogramming level), not one per job id — the difference between a few
// kilobytes and gigabytes on a million-job workload.
type jobSlot struct {
	rt  nthlib.Runtime
	an  selfanalyzer.Analyzer
	rng stats.RNG
}

// jobTrack is the driver's bookkeeping for one job. Tracks live in one slab
// indexed by job id, and each implements nthlib.Listener so starting a job
// allocates no hook closures.
type jobTrack struct {
	rs    *runState
	job   workload.Job
	rt    *nthlib.Runtime
	slot  *jobSlot
	start sim.Time
	end   sim.Time
	done  bool
}

// OnPerformance implements nthlib.Listener.
func (t *jobTrack) OnPerformance(m selfanalyzer.Measurement) {
	t.rs.mgr.ReportPerformance(sched.JobID(t.job.ID), m)
}

// OnDone implements nthlib.Listener.
func (t *jobTrack) OnDone() {
	rs := t.rs
	t.end = rs.eng.Now()
	t.done = true
	rs.completed++
	if rs.tr != nil {
		rs.tr.Record(obs.Event{At: t.end, Kind: obs.KindJobDone, Job: int32(t.job.ID)})
	}
	rs.memDone(t.job.ID)
	rs.mgr.JobFinished(sched.JobID(t.job.ID))
	// The manager no longer references the runtime and nthlib's iteration
	// event has fired for the last time, so the slot can serve the next
	// admission immediately — which JobCompleted may trigger.
	rs.sys.releaseSlot(t)
	rs.queue.JobCompleted()
}

func noopJob(id int) {}

// System is a reusable simulation environment. Each call to Run or
// RunContext resets and recycles the previous run's arenas — the engine's
// event heap, the trace recorder, the machine, the queuing system's slabs,
// per-job runtimes/analyzers/noise streams, and the manager and policy of
// every regime run so far — so steady-state runs allocate almost nothing.
// Results are byte-identical to the package-level Run: each component is
// initialized only by its Reset (or Init), the same call its constructor
// makes on a zero value, so a recycled component is a fresh one by
// construction; and the engine's event ordering depends only on the call
// sequence, which is preserved.
//
// A System is NOT safe for concurrent use; give each goroutine its own
// (the sweep runner keeps one per worker). The zero value is ready to use.
type System struct {
	eng  sim.Engine
	rec  *trace.Recorder // nil after a KeepBursts run hands it to its result
	mach machine.Machine

	parent stats.RNG // root seed stream, reseeded per run
	noise  stats.RNG // "selfanalyzer-noise" substream, reseeded per run

	// managers holds one resource manager per PolicyKind run so far, each
	// built as a zero value on first use and reset, with its policy, on
	// every run of its kind.
	managers map[PolicyKind]rm.Manager

	queue    qs.QueuingSystem
	tryStart func() // queue.TryStart method value, built once

	tracks   []jobTrack // slab indexed by job id, cleared per run
	slotFree []*jobSlot // recycled runtime/analyzer/RNG bundles
	rs       runState

	nameBuf []byte // scratch for per-job stream names
}

// NewSystem returns an empty reusable environment. Arenas are grown lazily
// by the first run and recycled by every run after it.
func NewSystem() *System {
	return &System{}
}

// EventsExecuted returns the number of engine events the most recent run on
// this System executed — the diagnostic that makes throughput mode's event
// reduction observable to benchmarks and tests.
func (s *System) EventsExecuted() uint64 { return s.eng.Executed }

// releaseSlot recycles a completed job's runtime bundle.
func (s *System) releaseSlot(t *jobTrack) {
	if t.slot == nil {
		return
	}
	t.rt = nil
	s.slotFree = append(s.slotFree, t.slot)
	t.slot = nil
}

// takeSlot pops a recycled bundle or allocates a fresh one.
func (s *System) takeSlot() *jobSlot {
	if n := len(s.slotFree); n > 0 {
		slot := s.slotFree[n-1]
		s.slotFree = s.slotFree[:n-1]
		return slot
	}
	return new(jobSlot)
}

// manager resets and returns the run's resource manager, building it on the
// first run of its kind, and attaches the run's decision trace to every
// layer that records one. Must be called after the engine, machine, and
// recorder are reset.
func (s *System) manager(c *Config) (rm.Manager, error) {
	m := s.managers[c.Policy]
	if m == nil {
		m = newManager(c.Policy)
		if s.managers == nil {
			s.managers = make(map[PolicyKind]rm.Manager)
		}
		s.managers[c.Policy] = m
	}
	switch m := m.(type) {
	case *rm.SpaceManager:
		if err := resetPolicy(m.Policy(), c); err != nil {
			return nil, err
		}
		m.Reset(&s.eng, &s.mach, m.Policy(), s.rec)
		m.SetTrace(c.Trace)
	case *rm.IRIXManager:
		m.Reset(&s.eng, &s.mach, s.rec)
		m.SetTrace(c.Trace)
	case *rm.GangManager:
		m.Reset(&s.eng, &s.mach, s.rec)
	}
	return m, nil
}

// newManager builds kind's manager and policy as zero values, for manager
// to reset.
func newManager(kind PolicyKind) rm.Manager {
	var pol sched.Policy
	switch kind {
	case IRIX:
		return new(rm.IRIXManager)
	case Gang:
		return new(rm.GangManager)
	case PDPA:
		pol = new(core.PDPA)
	case AdaptivePDPA:
		pol = new(core.Adaptive)
	case Equipartition:
		pol = new(policy.Equipartition)
	case EqualEfficiency:
		pol = new(policy.EqualEfficiency)
	case Dynamic:
		pol = new(policy.Dynamic)
	}
	return rm.NewSpaceManager(nil, nil, pol, nil)
}

// resetPolicy resets a space-sharing policy for the run c configures and
// attaches the run's trace if the policy records one (PDPA and
// Equal_efficiency do; Adaptive promotes PDPA's SetTrace).
func resetPolicy(pol sched.Policy, c *Config) error {
	params := core.DefaultParams()
	if c.PDPAParams != nil {
		params = *c.PDPAParams
	}
	var err error
	switch pol := pol.(type) {
	case *core.Adaptive:
		err = pol.Reset(params, 0.5, 0.85, 10)
	case *core.PDPA:
		err = pol.Reset(params)
	case interface{ Reset() }: // Equipartition, Equal_efficiency, Dynamic
		pol.Reset()
	}
	if tp, ok := pol.(interface{ SetTrace(*obs.Trace) }); ok {
		tp.SetTrace(c.Trace)
	}
	return err
}

// Run executes one workload, recycling this System's arenas. See RunContext.
func (s *System) Run(cfg Config) (*metrics.RunResult, error) {
	return s.RunContext(context.Background(), cfg)
}

// RunContext executes one workload with cancellation, recycling this
// System's arenas. The returned result owns all its data: it stays valid
// after further runs (with KeepBursts the recorder is handed off and a
// fresh one is built for the next run).
func (s *System) RunContext(ctx context.Context, cfg Config) (*metrics.RunResult, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	w := c.Workload

	eng := &s.eng
	eng.Reset()
	if s.rec == nil {
		s.rec = new(trace.Recorder)
	}
	rec := s.rec
	rec.Reset(w.NCPU)
	rec.KeepBursts = c.KeepBursts
	mach := &s.mach
	mach.Reset(w.NCPU, rec)
	if c.NUMANodeSize > 1 {
		mach.SetNodeSize(c.NUMANodeSize)
	}
	// Reseeding reproduces exactly the streams NewRNG + Stream would build.
	stats.InitRNG(&s.parent, c.Seed)
	s.parent.StreamInto(&s.noise, "selfanalyzer-noise")

	mgr, err := s.manager(&c)
	if err != nil {
		return nil, err
	}
	fixedMPL := c.FixedMPL
	if c.Policy == PDPA || c.Policy == AdaptivePDPA {
		fixedMPL = 0 // coordinated admission, no fixed level
	}

	// One track per job, slab-allocated and indexed by the workload's dense
	// job ids.
	maxID := 0
	for _, job := range w.Jobs {
		if job.ID > maxID {
			maxID = job.ID
		}
	}
	if cap(s.tracks) <= maxID {
		s.tracks = make([]jobTrack, maxID+1)
	} else {
		s.tracks = s.tracks[:maxID+1]
		clear(s.tracks)
	}
	tracks := s.tracks
	rs := &s.rs
	*rs = runState{sys: s, eng: eng, mgr: mgr, memDone: noopJob, tr: c.Trace}

	if c.Trace != nil {
		c.Trace.Record(obs.Event{
			At: 0, Kind: obs.KindRunStart, Job: -1,
			Procs: int32(w.NCPU), Want: int32(len(w.Jobs)),
		})
	}

	// Optional CC-NUMA memory model (space sharing only: the time-sharing
	// models, IRIX and gang, charge no locality loss at all).
	memStart := noopJob
	if c.Memory && c.NUMANodeSize > 1 && c.Policy != IRIX && c.Policy != Gang {
		mem, err := memory.New(mach.Nodes(), memRemotePenalty, memMigrationRate)
		if err != nil {
			return nil, err
		}
		nodeShare := func(job int) []float64 {
			share := make([]float64, mach.Nodes())
			cpus := mach.CPUsView(job) // read-only view, not retained
			if len(cpus) == 0 {
				return share
			}
			for _, cpu := range cpus {
				share[mach.NodeOf(cpu)] += 1 / float64(len(cpus))
			}
			return share
		}
		lastFactor := map[int]float64{}
		var tick func()
		tick = func() {
			for id := range tracks {
				tr := &tracks[id]
				if tr.done || tr.rt == nil || tr.rt.Allocated() == 0 {
					continue
				}
				f := mem.Advance(eng.Now(), id, nodeShare(id))
				if f < 0.01 {
					f = 0.01
				}
				// Hysteresis: tiny locality drift must not dirty every
				// measurement.
				if last, ok := lastFactor[id]; !ok || f > last+0.02 || f < last-0.02 {
					lastFactor[id] = f
					tr.rt.SetRateFactor(f)
				}
			}
			if rs.completed < len(w.Jobs) {
				eng.After(memTick, "memory/tick", tick)
			}
		}
		eng.After(memTick, "memory/tick", tick)
		memStart = func(id int) { mem.JobStarted(eng.Now(), id, nodeShare(id)) }
		rs.memDone = func(id int) { mem.JobFinished(id) }
	}
	start := func(job workload.Job) {
		id := sched.JobID(job.ID)
		prof := c.Profiles(job.Class)
		slot := s.takeSlot()
		var an *selfanalyzer.Analyzer
		if c.Policy != IRIX {
			// The NANOS runtime instruments applications; the native IRIX
			// regime runs them unmodified.
			sacfg := selfanalyzer.ConfigFor(prof, c.NoiseSigma)
			s.nameBuf = append(s.nameBuf[:0], "job/"...)
			s.nameBuf = strconv.AppendInt(s.nameBuf, int64(job.ID), 10)
			s.noise.StreamIntoBytes(&slot.rng, s.nameBuf)
			if err := selfanalyzer.Init(&slot.an, sacfg, &slot.rng); err != nil {
				panic(err)
			}
			an = &slot.an
		}
		track := &tracks[job.ID]
		*track = jobTrack{rs: rs, job: job, slot: slot, start: eng.Now()}
		rt := &slot.rt
		nthlib.Init(rt, eng, prof, job.Request, an, nthlib.Hooks{Listener: track})
		rt.SetGranularity(job.Granularity())
		rt.SetBinaryOnly(c.BinaryOnly && c.Policy != IRIX)
		if c.Throughput > 1 {
			rt.SetThroughput(c.Throughput)
		}
		track.rt = rt
		mgr.StartJob(id, rt)
		memStart(job.ID)
	}
	queue := &s.queue
	qs.Init(queue, eng, fixedMPL, mgr.CanAdmit, start, rec)
	if c.Trace != nil {
		queue.SetTrace(c.Trace)
	}
	rs.queue = queue
	if sm, ok := mgr.(*rm.SpaceManager); ok {
		sm.SetQueuedFunc(queue.Queued)
	}
	if s.tryStart == nil {
		s.tryStart = queue.TryStart
	}
	mgr.SetAdmissionChanged(s.tryStart)
	queue.SubmitAll(w)

	if ctx != nil && ctx.Done() != nil {
		// Only contexts that can actually be cancelled pay for the check;
		// context.Background() keeps the engine loop untouched.
		eng.SetInterrupt(ctx.Err)
	}
	eng.Run(c.MaxSimTime)
	if err := eng.InterruptErr(); err != nil {
		return nil, fmt.Errorf("system: %s/%s aborted at %v: %w",
			c.Policy, w.Name, eng.Now(), err)
	}
	if !queue.Drained() {
		return nil, fmt.Errorf("system: %s/%s did not drain within %v (%d queued, %d running)",
			c.Policy, w.Name, c.MaxSimTime, queue.Queued(), queue.Running())
	}
	// The engine clock advances to the deadline once idle; the run really
	// ended at the last completion.
	var end sim.Time
	for i := range tracks {
		if tr := &tracks[i]; tr.done && tr.end > end {
			end = tr.end
		}
	}
	rec.Close(end)
	if c.Trace != nil {
		c.Trace.Record(obs.Event{At: end, Kind: obs.KindRunEnd, Job: -1})
	}

	res := &metrics.RunResult{
		Policy:   mgr.Name(),
		Workload: w.Name,
		Load:     w.TargetLoad,
		MPL:      c.FixedMPL,
		NCPU:     w.NCPU,
		Seed:     c.Seed,
		MaxMPL:   queue.MaxMPL(),
	}
	if c.KeepBursts {
		// The result takes ownership of the recorder; the next run builds a
		// fresh one instead of resetting history the caller still holds.
		res.Recorder = rec
		s.rec = nil
	}
	res.Jobs = make([]metrics.JobResult, 0, len(w.Jobs))
	for _, job := range w.Jobs {
		tr := &tracks[job.ID]
		if !tr.done {
			return nil, fmt.Errorf("system: job %d not completed", job.ID)
		}
		cpuSec := metrics.IntegrateAllocation(rec.AllocationHistory(job.ID), tr.end)
		jr := metrics.JobResult{
			ID:         job.ID,
			Class:      job.Class,
			Request:    job.Request,
			Submit:     job.Submit,
			Start:      tr.start,
			End:        tr.end,
			CPUSeconds: cpuSec,
		}
		if exec := jr.Execution().Seconds(); exec > 0 {
			jr.AvgAlloc = cpuSec / exec
		}
		if ded := c.Profiles(job.Class).DedicatedTime(job.Request); ded > 0 {
			jr.Slowdown = float64(jr.Response()) / float64(ded)
		}
		if jr.End > res.Makespan {
			res.Makespan = jr.End
		}
		res.Jobs = append(res.Jobs, jr)
	}
	res.SortJobs()
	// Copied, not aliased: the recorder's timeline buffer is recycled by the
	// next run on this System.
	res.MPLTimeline = append([]trace.TimePoint(nil), rec.MPLTimeline()...)
	res.AvgMPL = metrics.TimeWeightedMPL(res.MPLTimeline, res.Makespan)
	res.Stability = rec.Stats()
	return res, nil
}
