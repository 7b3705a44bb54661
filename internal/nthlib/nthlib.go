// Package nthlib models the NANOS threads library (NthLib): the
// application-level runtime that executes the parallel application, reacts
// to processor allocation changes pushed by the resource manager, and feeds
// iteration timings to the SelfAnalyzer, reporting the resulting
// measurements back up (Section 3.1).
//
// One Runtime drives one application instance. It owns the application's
// iteration-boundary events on the simulation engine; the resource manager
// owns when and how many processors the application gets.
package nthlib

import (
	"fmt"

	"pdpasim/internal/app"
	"pdpasim/internal/periodicity"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
)

// Hooks are the callbacks a Runtime raises toward the system driver.
type Hooks struct {
	// OnPerformance is called when the SelfAnalyzer produces a measurement
	// (instrumented runtimes only).
	OnPerformance func(m selfanalyzer.Measurement)
	// OnDone is called once when the application completes.
	OnDone func()
	// OnIteration, if set, is called after every completed iteration (used
	// by tracing and tests).
	OnIteration func(s app.IterationSample)
	// Listener, when set, receives the same performance/done notifications
	// through one interface value instead of two captured closures — the
	// allocation-free option for drivers that start many jobs. A function
	// hook and the Listener may both be set; the function fires first.
	Listener Listener
}

// Listener is the interface form of the OnPerformance/OnDone hooks.
type Listener interface {
	OnPerformance(m selfanalyzer.Measurement)
	OnDone()
}

// Runtime executes one application instance.
type Runtime struct {
	eng      *sim.Engine
	prof     *app.Profile
	exec     app.Execution          // embedded by value: one Runtime, one Execution
	analyzer *selfanalyzer.Analyzer // nil when uninstrumented
	hooks    Hooks

	request   int
	gran      int // allocation granularity (1 = malleable, see SetGranularity)
	allocated int // processors currently granted by the RM
	effective int // processors actually in use (baseline cap, request cap)
	// rateFactor scales the space-sharing execution rate; the memory model
	// uses it to express NUMA locality (1 = all accesses local).
	rateFactor float64
	// iterEv is the iteration-boundary event, embedded by value: the engine's
	// Reschedule/ScheduleInto re-arm the same struct for the application's
	// whole life, so no per-job (or per-reschedule) event is ever allocated.
	iterEv  sim.Event
	done    bool
	rawMode bool // time-sharing manager drives rates directly

	// stride > 1 enables throughput mode: undisturbed post-baseline
	// iterations are fused up to stride at a time into one boundary event
	// (see SetThroughput).
	stride int

	// iterName and iterFn are the event name and callback passed to the
	// engine on every reschedule, precomputed once: building them inline
	// would allocate a string and a closure per allocation change.
	iterName string
	iterFn   func()

	// detector implements the binary-only monitoring path (Section 3.1):
	// when set, the runtime does not know the outer-loop structure a priori
	// — it feeds the stream of parallel-loop addresses to the Dynamic
	// Periodicity Detector and only once the iterative structure is
	// confirmed do iteration timings reach the SelfAnalyzer.
	detector       *periodicity.Detector
	structureKnown bool
}

// New returns a runtime for one instance of prof requesting request
// processors, starting at the engine's current time. analyzer may be nil
// (the uninstrumented, native-runtime case); then no performance is ever
// reported.
func New(eng *sim.Engine, prof *app.Profile, request int, analyzer *selfanalyzer.Analyzer, hooks Hooks) *Runtime {
	r := new(Runtime)
	Init(r, eng, prof, request, analyzer, hooks)
	return r
}

// Init initializes r in place — the variant of New for drivers that slab-
// allocate one Runtime per job. Any previous state of r is discarded; r must
// not have a still-pending iteration event.
func Init(r *Runtime, eng *sim.Engine, prof *app.Profile, request int, analyzer *selfanalyzer.Analyzer, hooks Hooks) {
	if request < 1 {
		panic(fmt.Sprintf("nthlib: request %d < 1", request))
	}
	iterName := prof.IterEventName
	if iterName == "" {
		iterName = prof.Name + "/iter"
	}
	// The iteration callback is a method value bound to r itself, so a
	// recycled Runtime can keep its previous one instead of allocating a
	// fresh closure per job.
	iterFn := r.iterFn
	*r = Runtime{
		eng:        eng,
		prof:       prof,
		analyzer:   analyzer,
		hooks:      hooks,
		request:    request,
		gran:       1,
		rateFactor: 1,
		iterName:   iterName,
	}
	app.InitExecution(&r.exec, prof, analyzer != nil, eng.Now())
	if iterFn == nil {
		iterFn = r.completeIteration
	}
	r.iterFn = iterFn
}

// SetRateFactor scales the application's execution rate by f in (0, 1] —
// the hook the NUMA memory model uses to express locality. Changing the
// factor mid-iteration dirties the current measurement, exactly as real
// memory effects pollute timing. Only meaningful in space-sharing mode.
func (r *Runtime) SetRateFactor(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("nthlib: rate factor %v out of (0, 1]", f))
	}
	if f == r.rateFactor {
		return
	}
	r.rateFactor = f
	if !r.rawMode {
		r.applyRate()
	}
}

// applyRate recomputes and applies the current execution rate. The change is
// soft — it comes from environmental drift (memory locality) the monitoring
// stack cannot observe, so the current measurement stays valid and simply
// absorbs the drift as noise.
func (r *Runtime) applyRate() {
	rate := 0.0
	if r.effective >= 1 {
		rate = r.prof.SpeedupAt(r.exec.IterationsDone()).Speedup(r.effective) * r.rateFactor
	}
	if rate == r.exec.Rate() {
		return
	}
	r.exec.SetRateSoft(r.eng.Now(), rate)
	r.reschedule()
}

// SetGranularity declares the application's allocation granularity: 1 for a
// malleable OpenMP application, request for a rigid MPI application, an
// intermediate process count for an MPI+OpenMP hybrid. The runtime uses only
// multiples of the granularity (one OpenMP thread count per MPI process);
// with fewer processors than one per process the application cannot run.
// Must be called before the first allocation.
func (r *Runtime) SetGranularity(g int) {
	if g < 1 {
		g = 1
	}
	if g > r.request {
		g = r.request
	}
	r.gran = g
}

// Granularity returns the allocation granularity.
func (r *Runtime) Granularity() int { return r.gran }

// SetBinaryOnly switches the runtime to the binary-only monitoring path:
// the application's source is unavailable, so instrumentation is injected
// by interposition and the outer-loop structure must first be discovered by
// the Dynamic Periodicity Detector from the parallel-loop address stream.
// Until the detector confirms the period, no measurements reach the
// scheduler — a realistic warm-up cost compared with compiler-inserted
// instrumentation. Must be called before execution starts.
func (r *Runtime) SetBinaryOnly(on bool) {
	if !on {
		r.detector = nil
		r.structureKnown = false
		return
	}
	r.detector = periodicity.NewDetector(0)
	r.structureKnown = false
}

// StructureKnown reports whether the iterative structure is known to the
// monitoring stack (always true for compiler-instrumented applications;
// for binary-only applications, true once the detector confirms it).
func (r *Runtime) StructureKnown() bool {
	return r.detector == nil || r.structureKnown
}

// Profile returns the application profile.
func (r *Runtime) Profile() *app.Profile { return r.prof }

// Request returns the processor request.
func (r *Runtime) Request() int { return r.request }

// Allocated returns the current RM grant.
func (r *Runtime) Allocated() int { return r.allocated }

// IterationsDone returns completed iteration count.
func (r *Runtime) IterationsDone() int { return r.exec.IterationsDone() }

// Rate returns the execution's current effective speedup; in raw mode, the
// rate last passed to SetRawRate.
func (r *Runtime) Rate() float64 { return r.exec.Rate() }

// SetAllocation applies an RM grant of procs processors at the current
// engine time. Changing the effective parallelism of a running application
// charges the profile's reallocation penalty.
func (r *Runtime) SetAllocation(procs int) {
	if r.rawMode {
		panic("nthlib: SetAllocation on a raw-mode runtime")
	}
	if procs < 0 {
		procs = 0
	}
	r.allocated = procs
	r.refreshEffective()
}

func (r *Runtime) refreshEffective() {
	if r.done {
		return
	}
	now := r.eng.Now()
	eff := r.allocated
	if eff > r.request {
		eff = r.request
	}
	if r.analyzer != nil && r.analyzer.InBaseline() {
		limit := r.analyzer.BaselineCap()
		if limit < r.gran {
			limit = r.gran // at least one thread per MPI process
		}
		if eff > limit {
			eff = limit
		}
	}
	if r.gran > 1 {
		eff = eff / r.gran * r.gran // whole processes only
	}
	rate := 0.0
	if eff >= 1 {
		// The application's current phase governs its true speedup (phase
		// changes model the paper's variable-working-set caveat); the rate
		// factor carries NUMA memory locality.
		rate = r.prof.SpeedupAt(r.exec.IterationsDone()).Speedup(eff) * r.rateFactor
	}
	if eff == r.effective && rate == r.exec.Rate() {
		return
	}
	if r.effective > 0 && eff > 0 && eff != r.effective {
		// Threads are created/joined and data redistributed.
		r.exec.AddPenalty(now, r.prof.ReallocPenalty)
	}
	r.effective = eff
	r.exec.SetRate(now, rate)
	r.reschedule()
}

// SetRawRate drives the execution rate directly — used by time-sharing
// resource managers (the IRIX model) that compute per-quantum effective
// rates themselves. procs records the parallelism for bookkeeping only.
func (r *Runtime) SetRawRate(rate float64, procs int) {
	r.rawMode = true
	if r.done {
		return
	}
	r.allocated = procs
	r.effective = procs
	r.exec.SetRate(r.eng.Now(), rate)
	r.reschedule()
}

// SetThroughput enables throughput mode with the given stride: once the
// baseline measure is complete and the iterative structure known, up to k
// consecutive undisturbed iterations are fused into a single engine event,
// and the SelfAnalyzer sees one averaged measurement per fused span instead
// of one per iteration. Scheduling semantics are unchanged — any allocation
// change or penalty collapses the fusion at the exact iteration it lands in,
// and fusions never cross a phase boundary — but measurement sampling (and
// therefore the noise-draw sequence) differs from exact mode, so results are
// deterministic per seed yet not byte-equal to a stride-1 run. k <= 1
// disables the mode. Raw-mode (time-sharing) runtimes ignore the stride:
// their per-quantum rate changes would collapse every fusion immediately.
func (r *Runtime) SetThroughput(k int) {
	if k < 1 {
		k = 1
	}
	r.stride = k
}

// maybeBatch arms an iteration fusion when the runtime sits at a clean
// iteration boundary and nothing scheduled needs per-iteration visibility.
func (r *Runtime) maybeBatch() {
	if r.stride <= 1 || r.rawMode || r.done || !r.exec.AtIterationStart() {
		return
	}
	if r.analyzer != nil && r.analyzer.InBaseline() {
		return // the baseline measure needs every iteration individually
	}
	if !r.StructureKnown() {
		return // the periodicity detector needs the per-iteration loop stream
	}
	done := r.exec.IterationsDone()
	n := r.prof.Iterations - done
	// Never fuse across a phase boundary: the true speedup changes there and
	// the rate must be recomputed at the exact iteration.
	for _, ph := range r.prof.Phases {
		if ph.FromIteration > done {
			if d := ph.FromIteration - done; d < n {
				n = d
			}
			break
		}
	}
	if n > r.stride {
		n = r.stride
	}
	r.exec.StartBatch(n)
}

func (r *Runtime) reschedule() {
	if r.done {
		r.eng.Cancel(&r.iterEv)
		return
	}
	r.maybeBatch()
	end := r.exec.NextIterationEnd()
	if end == sim.Forever {
		r.eng.Cancel(&r.iterEv)
		return
	}
	if r.eng.Reschedule(&r.iterEv, end) {
		return
	}
	// The previous arming (if any) has fired or been cancelled and nothing
	// else holds the struct; re-arm it.
	r.eng.ScheduleInto(&r.iterEv, end, r.iterName, r.iterFn)
}

func (r *Runtime) completeIteration() {
	sample := r.exec.CompleteIteration(r.eng.Now())
	if r.hooks.OnIteration != nil {
		r.hooks.OnIteration(sample)
	}
	if r.exec.Done() {
		r.done = true
		r.effective = 0
		if r.hooks.OnDone != nil {
			r.hooks.OnDone()
		}
		if r.hooks.Listener != nil {
			r.hooks.Listener.OnDone()
		}
		return
	}

	if r.detector != nil && !r.structureKnown {
		// Binary-only path: replay the iteration's parallel-loop addresses
		// into the periodicity detector; measurements start only once the
		// iterative structure is confirmed.
		for _, loop := range r.prof.LoopSignature {
			if r.detector.Observe(loop) {
				r.structureKnown = true
			}
		}
	}
	var (
		m  selfanalyzer.Measurement
		ok bool
	)
	if r.analyzer != nil && r.StructureKnown() {
		wasBaseline := r.analyzer.InBaseline()
		m, ok = r.analyzer.RecordIteration(sample, r.effective)
		if wasBaseline && !r.analyzer.InBaseline() {
			// Baseline finished: the cap lifts, possibly jumping the
			// effective parallelism up to the full grant.
			r.refreshEffective()
		}
	}
	if !r.rawMode {
		// A phase boundary may change the true speedup at this allocation.
		r.refreshEffective()
	}
	r.reschedule()
	if ok {
		if r.hooks.OnPerformance != nil {
			r.hooks.OnPerformance(m)
		}
		if r.hooks.Listener != nil {
			r.hooks.Listener.OnPerformance(m)
		}
	}
}
