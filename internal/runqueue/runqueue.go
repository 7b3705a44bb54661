package runqueue

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/obs"
	"pdpasim/internal/store"
)

// State is a run's lifecycle state.
type State string

// The run lifecycle: Queued → Running → one of the terminal states.
const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Canceled
}

// Sentinel errors returned by Submit and the lookup methods.
var (
	ErrNotFound  = errors.New("runqueue: no such run")
	ErrDraining  = errors.New("runqueue: pool is draining, not accepting work")
	ErrQueueFull = errors.New("runqueue: queue is full")
	// ErrRunTimeout marks a run failed because no attempt produced a result
	// within Config.RunTimeout; match with errors.Is.
	ErrRunTimeout = errors.New("runqueue: run timeout")
)

// OverloadError is the load-shedding rejection: the queue is at QueueLimit
// and the submission was turned away before consuming resources. RetryAfter
// estimates when capacity frees up, sized for an HTTP Retry-After header.
// errors.Is(err, ErrQueueFull) matches.
type OverloadError struct {
	// Depth is the queue depth at rejection.
	Depth int
	// RetryAfter is the suggested wait before retrying, whole seconds.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("runqueue: overloaded: %d runs queued; retry in %v", e.Depth, e.RetryAfter)
}

// Is makes errors.Is(err, ErrQueueFull) succeed for shed submissions.
func (e *OverloadError) Is(target error) bool { return target == ErrQueueFull }

// SimulateFunc executes one spec; tests substitute it to control timing. It
// produces the run's result only: a served decision trace is derived from
// the spec by the real simulator (Pool.Trace), whatever Simulate returns.
type SimulateFunc func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error)

// Config parameterizes a Pool. The zero value gets sensible defaults.
type Config struct {
	// BaseWorkers is the concurrency below which admission is unconditional
	// — the analogue of PDPA's base multiprogramming level (default 2).
	BaseWorkers int
	// MaxWorkers caps concurrent simulations (default 2×BaseWorkers).
	MaxWorkers int
	// Warmup is how long a freshly started run is considered "settling".
	// Above BaseWorkers, a queued run is admitted only when every in-flight
	// run is past warm-up — PDPA's stability condition (default 250 ms).
	Warmup time.Duration
	// QueueLimit bounds the FIFO queue: a submission finding it full is shed
	// with an *OverloadError carrying a Retry-After estimate (default 256).
	QueueLimit int
	// CacheSize is ignored: a done run answers repeats of its spec for as
	// long as the run history holds it (DefaultHistoryLimit).
	//
	// Deprecated: the run history is the only result cache; leave it unset.
	CacheSize int
	// TraceLimit bounds the decision-trace events served per run at
	// GET /v1/runs/{id}/trace. The trace is not stored: the simulator is
	// deterministic, so Pool.Trace re-simulates a done run's spec with this
	// many events traced. 0 means the default 2000; negative disables the
	// endpoint.
	TraceLimit int
	// Simulate overrides the simulation function (default: the real
	// simulator via pdpasim.RunContext, untraced).
	Simulate SimulateFunc

	// RunTimeout bounds each simulation attempt's wall clock, measured from
	// attempt start (queue wait is bounded only by the deadline a submitter
	// sets). The attempt's context is cancelled, the engine aborts at its
	// next interrupt check, and the run fails with an error matching
	// ErrRunTimeout. 0 disables.
	RunTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (total
	// attempts = MaxRetries+1). Only errors that expose Transient() bool ==
	// true are retried — cancellations, deadlines, timeouts, and panics
	// never are. Retries pause for RetryBackoff doubled per attempt plus
	// seeded jitter. 0 disables retry.
	MaxRetries int
	// RetryBackoff is the base of the exponential retry backoff (default
	// 50 ms, capped at 5 s per pause).
	RetryBackoff time.Duration
	// Faults, when set, is consulted at the pool's fault-injection sites
	// (attempt start and finish, cache-hit serving) — chaos-test tooling.
	// Nil, the production value, costs one nil check per site.
	Faults *faults.Injector

	// Store, when set, makes terminal runs and accepted sweeps durable: the
	// pool appends them to the store's journal as they settle and rehydrates
	// its run history (which is its result cache) and sweep index from the
	// recovered records in New. The pool takes over the opened store's
	// recovered records but not its lifecycle — the owner still calls
	// Store.Close after Drain.
	Store *store.Store

	// historyLimit bounds the finished runs kept addressable by ID (default
	// DefaultHistoryLimit). Only tests lower it.
	historyLimit int
}

// DefaultHistoryLimit bounds the finished runs kept addressable by ID — by
// the pool and the fleet coordinator alike, least recently used forgotten
// first.
const DefaultHistoryLimit = 2048

func (c Config) withDefaults() Config {
	if c.BaseWorkers <= 0 {
		c.BaseWorkers = 2
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 2 * c.BaseWorkers
	}
	if c.MaxWorkers < c.BaseWorkers {
		c.MaxWorkers = c.BaseWorkers
	}
	if c.Warmup <= 0 {
		c.Warmup = 250 * time.Millisecond
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 256
	}
	if c.TraceLimit == 0 {
		c.TraceLimit = 2000
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.historyLimit <= 0 {
		c.historyLimit = DefaultHistoryLimit
	}
	if c.Simulate == nil {
		c.Simulate = func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) {
			ws, opts := spec.Facade()
			return pdpasim.RunContext(ctx, ws, opts)
		}
	}
	return c
}

// run is the pool's record of one submission. All mutable fields are
// guarded by the pool mutex.
type run struct {
	// runRecord is the durable part; its Error is filled in from err only
	// when the run is journaled.
	runRecord
	err      error
	deadline time.Duration

	cancel          context.CancelFunc
	cancelRequested bool
}

// event is the lifecycle event of the run's current state, stamped when
// the run entered it; a terminal event carries the run's error text.
func (r *run) event() client.Event {
	ev := client.Event{State: string(r.State), At: r.Submitted}
	switch {
	case r.State.Terminal():
		ev.At = r.Finished
	case r.State == Running:
		ev.At = r.Started
	}
	if r.err != nil {
		ev.Message = r.err.Error()
	}
	return ev
}

// Snapshot is a consistent copy of a run's externally visible state.
type Snapshot struct {
	ID        string
	Key       string
	Spec      Spec
	State     State
	Err       error
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// ResultJSON is the full serialized result once the run is Done.
	ResultJSON []byte
}

// SubmitResult reports how a submission was resolved.
type SubmitResult struct {
	ID    string
	State State
	// CacheHit: an identical spec had already completed; its result is
	// served without re-simulating.
	CacheHit bool
	// Deduped: an identical spec is queued or in flight; the submission
	// joined it (singleflight).
	Deduped bool
}

// wallBuckets are the histogram bucket upper bounds (seconds) for per-run
// simulation wall time.
var wallBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// allocBuckets bucket per-job time-averaged processor allocations;
// attemptBuckets bucket simulation attempts per run (1 = no retry).
var (
	allocBuckets   = []float64{1, 2, 4, 8, 12, 16, 24, 32, 48, 64}
	attemptBuckets = []float64{1, 2, 3, 4, 5, 8}
)

// panicsHelp is shared with the HTTP layer, which registers the "http"
// series of the same family.
const panicsHelp = "Panics recovered without taking the daemon down, by origin."

// poolMetrics is the pool's obs.Registry plus the instruments it owns. The
// registry renders every pdpad_* series for the daemon's /metrics endpoint;
// gauges read pool state through closures at exposition time, and counters
// count as the pool moves, so a scrape takes the pool lock only for the
// gauges.
type poolMetrics struct {
	reg *obs.Registry

	submitted   *obs.Counter // submissions, cache and dedup hits included
	started     *obs.Counter // simulations started
	cacheHits   *obs.Counter // submissions served from the result cache
	cacheMisses *obs.Counter // submissions that needed a fresh simulation
	dedupHits   *obs.Counter // submissions that joined an in-flight run
	done        *obs.Counter // runs finished, by terminal state
	failed      *obs.Counter
	canceled    *obs.Counter

	wall       *obs.Histogram // simulation wall time per run
	queueWait  *obs.Histogram // queue wait per started run
	allocProcs *obs.Histogram // time-averaged processors per finished job
	attempts   *obs.Histogram // simulation attempts per run

	retries      *obs.Counter // attempts retried after transient failures
	timeouts     *obs.Counter // attempts cancelled by RunTimeout
	panics       *obs.Counter // worker panics recovered
	sheds        *obs.Counter // submissions rejected by load shedding
	storeErrors  *obs.Counter // store writes/records that failed or were unreadable
	storeEvicted *obs.Counter // recovered runs dropped to respect the history bound
}

func (p *Pool) initMetrics() {
	reg := obs.NewRegistry()
	m := &poolMetrics{reg: reg}

	locked := func(f func() float64) func() float64 {
		return func() float64 { p.mu.Lock(); defer p.mu.Unlock(); return f() }
	}
	reg.GaugeFunc("pdpad_queue_depth", "Runs waiting in the FIFO queue.",
		locked(func() float64 { return float64(len(p.queue)) }))
	reg.GaugeFunc("pdpad_inflight_runs", "Simulations currently executing.",
		locked(func() float64 { return float64(len(p.running)) }))
	reg.GaugeFunc("pdpad_goroutines", "Live goroutines in the serving process (leak smoke-checks read this).",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("pdpad_draining", "1 while the pool is draining for shutdown.",
		locked(func() float64 {
			if p.draining {
				return 1
			}
			return 0
		}))

	m.submitted = reg.Counter("pdpad_runs_submitted_total", "Submissions received, including cache and dedup hits.")
	m.started = reg.Counter("pdpad_runs_started_total", "Simulations started.")
	m.cacheHits = reg.Counter("pdpad_cache_hits_total", "Submissions served from the result cache.")
	m.cacheMisses = reg.Counter("pdpad_cache_misses_total", "Submissions that required a fresh simulation.")
	m.dedupHits = reg.Counter("pdpad_dedup_hits_total", "Submissions that joined an identical in-flight run (singleflight).")
	const finished = "pdpad_runs_finished_total"
	const finishedHelp = "Runs finished, by terminal state."
	m.done = reg.LabeledCounter(finished, finishedHelp, "state", "done")
	m.failed = reg.LabeledCounter(finished, finishedHelp, "state", "failed")
	m.canceled = reg.LabeledCounter(finished, finishedHelp, "state", "canceled")

	m.wall = reg.Histogram("pdpad_run_wall_seconds",
		"Per-run simulation wall time.", wallBuckets)
	m.queueWait = reg.Histogram("pdpad_run_queue_wait_seconds",
		"Time each started run spent queued before admission.", wallBuckets)
	m.allocProcs = reg.Histogram("pdpad_job_alloc_processors",
		"Time-averaged processor allocation per finished job.", allocBuckets)

	m.attempts = reg.Histogram("pdpad_run_attempts",
		"Simulation attempts per run (1 = no retry).", attemptBuckets)

	m.retries = reg.Counter("pdpad_run_retries_total",
		"Simulation attempts retried after a transient failure.")
	m.timeouts = reg.Counter("pdpad_run_timeouts_total",
		"Simulation attempts cancelled for exceeding the per-run wall-clock timeout.")
	m.panics = reg.LabeledCounter("pdpad_recovered_panics_total",
		panicsHelp, "where", "worker")
	m.sheds = reg.Counter("pdpad_sheds_total",
		"Submissions (a sweep counts once) shed with an overload rejection because the queue was full.")
	m.storeErrors = reg.Counter("pdpad_store_errors_total",
		"Store operations that failed or recovered records that could not be decoded; the pool keeps serving from memory.")
	m.storeEvicted = reg.Counter("pdpad_store_evicted_runs_total",
		"Recovered runs dropped at boot to respect the history bound (DefaultHistoryLimit).")

	if st := p.cfg.Store; st != nil {
		reg.CounterFunc("pdpad_store_appended_entries_total",
			"Records appended to the durable store's journal.",
			func() uint64 { return st.Stats().AppendedEntries })
		reg.CounterFunc("pdpad_store_appended_bytes_total",
			"Bytes appended to the durable store's journal, framing included.",
			func() uint64 { return st.Stats().AppendedBytes })
		reg.CounterFunc("pdpad_store_fsyncs_total",
			"Batched journal fsyncs performed by the durable store.",
			func() uint64 { return st.Stats().Fsyncs })
		reg.CounterFunc("pdpad_store_compactions_total",
			"Store compactions (snapshot written, journal reset).",
			func() uint64 { return st.Stats().Compactions })
		reg.CounterFunc("pdpad_store_recovered_entries_total",
			"Records recovered from the store at boot.",
			func() uint64 { return st.Stats().RecoveredEntries })
		reg.CounterFunc("pdpad_store_truncated_tails_total",
			"Torn journal tails cut off during recovery (crash mid-append).",
			func() uint64 { return st.Stats().TruncatedTails })
		reg.CounterFunc("pdpad_store_corrupt_frames_total",
			"Journal frames dropped during recovery for a CRC mismatch.",
			func() uint64 { return st.Stats().CorruptFrames })
		reg.GaugeFunc("pdpad_store_journal_bytes",
			"Current size of the durable store's journal.",
			func() float64 { return float64(st.JournalBytes()) })
	}

	p.met = m
}

// Pool is the simulation worker pool. Create with New; all methods are safe
// for concurrent use.
type Pool struct {
	cfg         Config
	*SweepIndex // the v1 sweep calls

	mu sync.Mutex
	// runs is every run by ID, its spec key the singleflight index and the
	// result cache's, and the bounded history of finished runs.
	runs     *Ledger[*run]
	queue    []*run
	running  map[*run]struct{}
	draining bool
	idle     chan struct{} // closed when draining and no work remains
	recheck  *time.Timer   // pending warm-up re-evaluation

	met *poolMetrics

	// retryRNG jitters retry backoff (guarded by mu). Fixed-seeded: jitter
	// decorrelates concurrent retries, determinism keeps tests honest.
	retryRNG *rand.Rand

	// traceSlots bounds the decision traces derived at once (Trace) to
	// BaseWorkers simulations.
	traceSlots chan struct{}
}

// New returns a ready pool.
func New(cfg Config) *Pool {
	p := &Pool{
		cfg:      cfg.withDefaults(),
		running:  make(map[*run]struct{}),
		idle:     make(chan struct{}),
		retryRNG: rand.New(rand.NewSource(1)),
	}
	p.traceSlots = make(chan struct{}, p.cfg.BaseWorkers)
	p.initMetrics()
	p.SweepIndex = NewSweepIndex(kindSweep, p.cfg.Store, p.met.storeErrors, SweepHooks{
		Admit:   p.admitSweep,
		Members: p.sweepMembers,
		Cancel:  func(ctx context.Context, id string) { p.Cancel(id) },
	})
	p.runs = NewLedger(LedgerConfig[*run]{
		Kind:        kindRun,
		DelKind:     kindDel,
		Store:       p.cfg.Store,
		Sweeps:      p.SweepIndex,
		StoreErrors: p.met.storeErrors,
		Record:      (*run).record,
		Decode:      decodeRun,
		Event:       (*run).event,
	})
	p.runs.Limit = p.cfg.historyLimit
	if p.cfg.Store != nil {
		p.rehydrate(p.cfg.Store.TakeRecovered())
	}
	return p
}

// Workers reports the base and max workers the pool runs with, after defaults.
func (p *Pool) Workers() (base, max int) { return p.cfg.BaseWorkers, p.cfg.MaxWorkers }

// Metrics returns the pool's metric registry — every pdpad_* series the
// daemon exposes at /metrics, in Prometheus text exposition via
// WritePrometheus.
func (p *Pool) Metrics() *obs.Registry { return p.met.reg }

// Submit enqueues a spec. An identical spec already queued, running, or
// completed is joined instead of re-simulated (singleflight / cache hit).
// deadline bounds the run's total latency; 0 means none.
func (p *Pool) Submit(spec Spec, deadline time.Duration) (SubmitResult, error) {
	if err := spec.Validate(); err != nil {
		return SubmitResult{}, err
	}
	p.mu.Lock()
	res, err := p.submitLocked(spec, deadline)
	if err == nil {
		p.admitLocked()
	}
	p.mu.Unlock()
	if err == nil && res.CacheHit {
		// An artificially slowed cache path (chaos testing) delays only this
		// submitter, never the pool.
		p.cfg.Faults.Sleep(faults.SiteCacheHit)
	}
	return res, err
}

// submitLocked is the admission-independent core of Submit: it resolves the
// spec against the cache and singleflight index or enqueues a fresh run, but
// does not kick admission — callers submitting a batch (SubmitSweep) run the
// admission pass once after the whole batch is queued.
func (p *Pool) submitLocked(spec Spec, deadline time.Duration) (SubmitResult, error) {
	key := spec.Key()
	p.met.submitted.Inc()
	if existing, hit := p.runs.Lookup(key); existing != nil {
		if hit {
			p.met.cacheHits.Inc()
			return SubmitResult{ID: existing.ID, State: Done, CacheHit: true}, nil
		}
		p.met.dedupHits.Inc()
		return SubmitResult{ID: existing.ID, State: existing.State, Deduped: true}, nil
	}
	if p.draining {
		return SubmitResult{}, ErrDraining
	}
	if len(p.queue) >= p.cfg.QueueLimit {
		return SubmitResult{}, p.shedLocked()
	}
	p.met.cacheMisses.Inc()
	r := p.runs.Add(key, func(id string) *run {
		return &run{
			runRecord: runRecord{ID: id, Key: key, Spec: spec, State: Queued, Submitted: time.Now()},
			deadline:  deadline,
		}
	})
	p.queue = append(p.queue, r)
	return SubmitResult{ID: r.ID, State: r.State}, nil
}

// shedLocked counts a shed submission and builds its rejection.
func (p *Pool) shedLocked() error {
	p.met.sheds.Inc()
	return &OverloadError{Depth: len(p.queue), RetryAfter: p.retryAfterLocked()}
}

// retryAfterLocked estimates when a shed client should retry: the queue
// drains in waves of MaxWorkers runs, each lasting about the mean wall time
// seen so far (1 s before any run has finished), clamped to [1s, 60s] and
// rounded up to whole seconds — Retry-After's granularity.
func (p *Pool) retryAfterLocked() time.Duration {
	mean := time.Second
	if s := p.met.wall.Snapshot(); s.Count > 0 {
		mean = time.Duration(s.Sum / float64(s.Count) * float64(time.Second))
	}
	waves := len(p.queue)/p.cfg.MaxWorkers + 1
	est := time.Duration(waves) * mean
	if est > 60*time.Second {
		est = 60 * time.Second
	}
	if rem := est % time.Second; rem != 0 {
		est += time.Second - rem
	}
	if est < time.Second {
		est = time.Second
	}
	return est
}

// canStartLocked is the PDPA admission rule applied to the pool: below the
// base concurrency admit unconditionally; above it, require a free slot AND
// a stable running set (every in-flight run past warm-up).
func (p *Pool) canStartLocked() bool {
	if len(p.running) < p.cfg.BaseWorkers {
		return true
	}
	if len(p.running) >= p.cfg.MaxWorkers {
		return false
	}
	now := time.Now()
	for r := range p.running {
		if now.Sub(r.Started) < p.cfg.Warmup {
			return false
		}
	}
	return true
}

// admitLocked starts queued runs while admission allows, and arranges a
// re-check when the only obstacle is warm-up.
func (p *Pool) admitLocked() {
	for len(p.queue) > 0 && p.canStartLocked() {
		r := p.queue[0]
		p.queue = p.queue[1:]
		p.startLocked(r)
	}
	if len(p.queue) > 0 && len(p.running) < p.cfg.MaxWorkers {
		p.scheduleRecheckLocked()
	}
}

// scheduleRecheckLocked arms a timer for the moment the youngest in-flight
// run exits warm-up, so a held run is admitted without any new event.
func (p *Pool) scheduleRecheckLocked() {
	if p.recheck != nil {
		return
	}
	var wait time.Duration
	now := time.Now()
	for r := range p.running {
		if left := p.cfg.Warmup - now.Sub(r.Started); left > wait {
			wait = left
		}
	}
	p.recheck = time.AfterFunc(wait+time.Millisecond, func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.recheck = nil
		p.admitLocked()
	})
}

func (p *Pool) startLocked(r *run) {
	now := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	if r.deadline > 0 {
		remaining := r.deadline - now.Sub(r.Submitted)
		if remaining <= 0 {
			cancel()
			r.State = Failed
			r.err = fmt.Errorf("runqueue: deadline %v expired while queued: %w",
				r.deadline, context.DeadlineExceeded)
			p.finishLocked(r)
			return
		}
		ctx, cancel = context.WithTimeout(ctx, remaining)
	}
	r.State = Running
	r.Started = now
	r.cancel = cancel
	p.running[r] = struct{}{}
	p.met.started.Inc()
	p.met.queueWait.Observe(now.Sub(r.Submitted).Seconds())
	p.runs.Advance(r.ID, r.event())
	go p.execute(ctx, cancel, r)
}

// isTransient reports whether err marks itself retryable by exposing
// Transient() bool. Cancellations, deadlines, timeouts, and recovered
// panics never do.
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// maxRetryBackoff caps a single retry pause.
const maxRetryBackoff = 5 * time.Second

// backoffFor returns the pause before retry n (0-based): the base backoff
// doubled per retry, capped, plus up to 50% seeded jitter so synchronized
// retries don't re-collide.
func (p *Pool) backoffFor(n int) time.Duration {
	d := p.cfg.RetryBackoff << uint(n)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	p.mu.Lock()
	jitter := time.Duration(p.retryRNG.Int63n(int64(d)/2 + 1))
	p.mu.Unlock()
	return d + jitter
}

// attempt executes one simulation attempt under the per-attempt timeout,
// with fault-injection sites around it and panic containment: a panicking
// worker fails the attempt, never the pool.
func (p *Pool) attempt(ctx context.Context, r *run) (out *pdpasim.Outcome, err error) {
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if p.cfg.RunTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, p.cfg.RunTimeout)
	}
	defer cancel()
	defer func() {
		if rec := recover(); rec != nil {
			p.met.panics.Inc()
			out, err = nil, fmt.Errorf("runqueue: recovered worker panic: %v", rec)
		}
	}()
	if err = p.cfg.Faults.Hit(actx, faults.SiteWorkerStart); err == nil {
		out, err = p.cfg.Simulate(actx, r.Spec)
		if err == nil {
			if err = p.cfg.Faults.Hit(actx, faults.SiteWorkerFinish); err != nil {
				out = nil
			}
		}
	}
	// A failure caused by the attempt timeout (and not by the run's own
	// deadline or cancellation) is reported as ErrRunTimeout — and is not
	// transient, so it is never retried.
	if err != nil && p.cfg.RunTimeout > 0 && ctx.Err() == nil &&
		errors.Is(actx.Err(), context.DeadlineExceeded) {
		p.met.timeouts.Inc()
		err = fmt.Errorf("runqueue: no result within run timeout %v: %w", p.cfg.RunTimeout, ErrRunTimeout)
	}
	return out, err
}

// runAttempts drives the bounded-retry loop: transient failures are retried
// up to MaxRetries times with exponential backoff plus jitter; everything
// else — success, cancellation, deadline, timeout, panic — settles the run.
func (p *Pool) runAttempts(ctx context.Context, r *run) (*pdpasim.Outcome, error) {
	for n := 0; ; n++ {
		out, err := p.attempt(ctx, r)
		if err == nil || n >= p.cfg.MaxRetries || !isTransient(err) || ctx.Err() != nil {
			p.met.attempts.Observe(float64(n + 1))
			return out, err
		}
		p.met.retries.Inc()
		pause := time.NewTimer(p.backoffFor(n))
		select {
		case <-pause.C:
		case <-ctx.Done():
			pause.Stop()
			p.met.attempts.Observe(float64(n + 1))
			return nil, fmt.Errorf("runqueue: %w while backing off from retryable failure: %v", ctx.Err(), err)
		}
	}
}

// execute runs the simulation outside the lock — timeout-bounded, retried on
// transient failures, panic-contained — and records the outcome.
func (p *Pool) execute(ctx context.Context, cancel context.CancelFunc, r *run) {
	defer cancel()
	span := obs.StartSpan(p.met.wall)
	out, err := p.runAttempts(ctx, r)
	span.End()
	var buf bytes.Buffer
	if err == nil {
		if out == nil {
			err = errors.New("runqueue: simulation returned no outcome")
		} else {
			err = out.WriteJSON(&buf)
			for _, j := range out.Jobs {
				p.met.allocProcs.Observe(j.AvgProcessors)
			}
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.running, r)
	switch {
	case err == nil:
		r.State = Done
		r.Result = buf.Bytes()
	case r.cancelRequested || errors.Is(err, context.Canceled):
		r.State = Canceled
		r.err = err
	default:
		r.State = Failed
		r.err = err
	}
	p.finishLocked(r)
	p.admitLocked()
}

// finishLocked settles a terminal run: its counter, then the ledger's
// terminal event, history and journal, then drain signalling.
// Timestamps are wall-normalized (monotonic reading stripped) so a run's
// externally visible timings survive a store round trip byte-identically.
func (p *Pool) finishLocked(r *run) {
	r.Finished = time.Now().Round(0)
	r.Submitted = r.Submitted.Round(0)
	r.Started = r.Started.Round(0)
	switch r.State {
	case Done:
		p.met.done.Inc()
	case Failed:
		p.met.failed.Inc()
	case Canceled:
		p.met.canceled.Inc()
	}
	p.runs.Settle(r.ID)
	p.signalIdleLocked()
}

func (p *Pool) signalIdleLocked() {
	if p.draining && len(p.running) == 0 && len(p.queue) == 0 {
		select {
		case <-p.idle:
		default:
			close(p.idle)
		}
	}
}

func (r *run) snapshotLocked() Snapshot {
	return Snapshot{
		ID:         r.ID,
		Key:        r.Key,
		Spec:       r.Spec,
		State:      r.State,
		Err:        r.err,
		Submitted:  r.Submitted,
		Started:    r.Started,
		Finished:   r.Finished,
		ResultJSON: r.Result,
	}
}

// Get returns a snapshot of a run.
func (p *Pool) Get(id string) (Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.runs.Get(id)
	if r == nil {
		return Snapshot{}, ErrNotFound
	}
	return r.snapshotLocked(), nil
}

// Runs lists snapshots of every known run, newest first.
func (p *Pool) Runs() []Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Snapshot, 0, p.runs.Len())
	p.runs.Each(true, func(r *run) { out = append(out, r.snapshotLocked()) })
	return out
}

// Cancel aborts a run: a queued run is removed immediately, a running one
// has its context cancelled and the simulation aborts at its next interrupt
// check. Cancelling a terminal run is a no-op. The returned snapshot
// reflects the state at return.
func (p *Pool) Cancel(id string) (Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.runs.Get(id)
	if r == nil {
		return Snapshot{}, ErrNotFound
	}
	switch r.State {
	case Queued:
		for i, q := range p.queue {
			if q == r {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				break
			}
		}
		r.State = Canceled
		r.err = context.Canceled
		p.finishLocked(r)
	case Running:
		r.cancelRequested = true
		r.cancel()
	}
	return r.snapshotLocked(), nil
}

// Drain gracefully shuts the pool down: new submissions are rejected, the
// queue keeps draining, and Drain returns once every run has finished. If
// ctx expires first, all remaining work is cancelled and ctx's error is
// returned.
func (p *Pool) Drain(ctx context.Context) error {
	defer p.stopRecheck()
	p.mu.Lock()
	p.draining = true
	p.signalIdleLocked()
	idle := p.idle
	p.mu.Unlock()

	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}

	// Forced: cancel everything still moving, then wait for the workers to
	// observe it.
	p.mu.Lock()
	for _, r := range p.queue {
		r.State = Canceled
		r.err = context.Canceled
		p.finishLocked(r)
	}
	p.queue = nil
	for r := range p.running {
		r.cancelRequested = true
		r.cancel()
	}
	p.mu.Unlock()
	<-idle
	return ctx.Err()
}

// stopRecheck disarms a pending warm-up re-evaluation once a drain has
// settled, so a drained pool leaves no timer behind.
func (p *Pool) stopRecheck() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recheck != nil {
		p.recheck.Stop()
		p.recheck = nil
	}
}
