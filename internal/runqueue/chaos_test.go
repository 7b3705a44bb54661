package runqueue

// Chaos suite: seeded fault scenarios driven through the pool's injection
// sites, each asserting the exact terminal state, the robustness counters,
// and — via leakcheck — that the pool winds down to zero extra goroutines.
// Rules select occurrences by position, never by wall clock, so every
// scenario is deterministic under -count=5 and across worker counts.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/internal/faults"
	"pdpasim/internal/invariant"
	"pdpasim/internal/leakcheck"
)

// drainPool gracefully drains p; every run must already be terminal or able
// to finish on its own.
func drainPool(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// instantSim is a SimulateFunc returning the stub outcome immediately.
func instantSim(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return stubOutcome()
}

// waitFailed polls until the run fails, fataling on any other terminal state.
func waitFailed(t *testing.T, p *Pool, id string) Snapshot {
	t.Helper()
	return waitState(t, p, id, Failed)
}

// TestChaosHangTimesOut: a hung attempt is cancelled by RunTimeout, the run
// fails with ErrRunTimeout, and the pool keeps serving.
func TestChaosHangTimesOut(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(1, faults.Rule{Site: faults.SiteWorkerStart, Kind: faults.KindHang, Count: 1})
	p := New(Config{RunTimeout: 30 * time.Millisecond, Simulate: instantSim, Faults: inj})

	r, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitFailed(t, p, r.ID)
	if !errors.Is(snap.Err, ErrRunTimeout) {
		t.Fatalf("err %v, want ErrRunTimeout", snap.Err)
	}
	if got := metric(p, "pdpad_run_timeouts_total", ""); got != 1 {
		t.Fatalf("timeouts %v, want 1", got)
	}
	// The pool survived: the next run (fault window passed) completes.
	r2, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, r2.ID, Done)
	drainPool(t, p)
}

// TestChaosWorkerPanicContained: a panicking worker fails its run — never
// the pool — and the failure does not poison the cache.
func TestChaosWorkerPanicContained(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(1, faults.Rule{Site: faults.SiteWorkerStart, Kind: faults.KindPanic, Count: 1})
	p := New(Config{Simulate: instantSim, Faults: inj})

	r, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitFailed(t, p, r.ID)
	if !strings.Contains(snap.Err.Error(), "injected panic") {
		t.Fatalf("err %v, want recovered injected panic", snap.Err)
	}
	if got := metric(p, "pdpad_recovered_panics_total", "worker"); got != 1 {
		t.Fatalf("recovered panics %v, want 1", got)
	}
	// Resubmitting the same spec re-simulates — a failed run must not be
	// served from the cache — and now succeeds.
	again, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit || again.Deduped {
		t.Fatalf("failed run satisfied a new submission: %+v", again)
	}
	waitState(t, p, again.ID, Done)
	drainPool(t, p)
}

// TestChaosTransientRetriedToSuccess: two transient failures, then success,
// inside the retry budget — at both worker counts.
func TestChaosTransientRetriedToSuccess(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(map[int]string{1: "workers=1", 3: "workers=3"}[workers], func(t *testing.T) {
			leakcheck.Check(t)
			var calls atomic.Int64
			inj := faults.New(1, faults.Rule{
				Site: faults.SiteWorkerStart, Kind: faults.KindError, Transient: true, Count: 2,
			})
			p := New(Config{
				BaseWorkers: workers, MaxWorkers: workers,
				MaxRetries: 3, RetryBackoff: time.Millisecond,
				Simulate: func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) {
					calls.Add(1)
					return instantSim(ctx, spec)
				},
				Faults: inj,
			})
			r, err := p.Submit(tinySpec(1), 0)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, p, r.ID, Done)
			if got := metric(p, "pdpad_run_retries_total", ""); got != 2 {
				t.Fatalf("retries %v, want 2", got)
			}
			// The faults fired before the simulator was reached: only the
			// successful attempt simulated.
			if got := calls.Load(); got != 1 {
				t.Fatalf("simulated %d times, want 1", got)
			}
			drainPool(t, p)
		})
	}
}

// TestChaosTransientExhaustsRetries: a persistent transient failure settles
// as Failed after MaxRetries+1 attempts, with the injected cause preserved.
func TestChaosTransientExhaustsRetries(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(1, faults.Rule{
		Site: faults.SiteWorkerStart, Kind: faults.KindError, Transient: true,
	})
	p := New(Config{MaxRetries: 2, RetryBackoff: time.Millisecond, Simulate: instantSim, Faults: inj})
	r, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitFailed(t, p, r.ID)
	if !errors.Is(snap.Err, faults.ErrInjected) {
		t.Fatalf("err %v, want ErrInjected", snap.Err)
	}
	if got := metric(p, "pdpad_run_retries_total", ""); got != 2 {
		t.Fatalf("retries %v, want 2 (MaxRetries exhausted)", got)
	}
	if got := inj.Seen(faults.SiteWorkerStart); got != 3 {
		t.Fatalf("attempts %d, want 3", got)
	}
	drainPool(t, p)
}

// TestChaosNonTransientNotRetried: a plain injected error is terminal on the
// first attempt even with retry budget available.
func TestChaosNonTransientNotRetried(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(1, faults.Rule{Site: faults.SiteWorkerStart, Kind: faults.KindError})
	p := New(Config{MaxRetries: 3, RetryBackoff: time.Millisecond, Simulate: instantSim, Faults: inj})
	r, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitFailed(t, p, r.ID)
	if !errors.Is(snap.Err, faults.ErrInjected) {
		t.Fatalf("err %v, want ErrInjected", snap.Err)
	}
	if got := metric(p, "pdpad_run_retries_total", ""); got != 0 {
		t.Fatalf("retries %v, want 0", got)
	}
	drainPool(t, p)
}

// TestChaosSlowCacheHit: a delayed cache response slows only the submitter —
// the served bytes stay identical to a fault-free pool's.
func TestChaosSlowCacheHit(t *testing.T) {
	leakcheck.Check(t)
	const delay = 30 * time.Millisecond
	inj := faults.New(1, faults.Rule{Site: faults.SiteCacheHit, Kind: faults.KindDelay, Delay: delay})
	p := New(Config{Faults: inj})
	clean := New(Config{})

	r, err := p.Submit(tinySpec(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	first := waitState(t, p, r.ID, Done)

	begin := time.Now()
	hit, err := p.Submit(tinySpec(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); !hit.CacheHit || elapsed < delay {
		t.Fatalf("cache hit %v after %v, want hit delayed ≥ %v", hit.CacheHit, elapsed, delay)
	}

	cr, err := clean.Submit(tinySpec(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	baseline := waitState(t, clean, cr.ID, Done)
	if string(first.ResultJSON) != string(baseline.ResultJSON) {
		t.Fatal("result under cache-delay injection differs from fault-free baseline")
	}
	drainPool(t, p)
	drainPool(t, clean)
}

// TestChaosBurstOverloadSheds: at QueueLimit, submissions are rejected with
// an OverloadError carrying a Retry-After estimate; accepted runs complete.
func TestChaosBurstOverloadSheds(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	release := make(chan struct{})
	p := New(Config{
		BaseWorkers: 1, MaxWorkers: 1, QueueLimit: 2,
		Simulate: blockingSim(t, &calls, release),
	})
	running, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, running.ID, Running)
	var accepted []string
	for seed := int64(2); seed <= 3; seed++ { // fills the queue to QueueLimit
		r, err := p.Submit(tinySpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, r.ID)
	}
	for seed := int64(4); seed <= 5; seed++ { // burst past the queue limit
		_, err := p.Submit(tinySpec(seed), 0)
		var overload *OverloadError
		if !errors.As(err, &overload) {
			t.Fatalf("seed %d: err %v, want OverloadError", seed, err)
		}
		if overload.Depth != 2 || overload.RetryAfter < time.Second {
			t.Fatalf("overload %+v, want depth 2 and Retry-After ≥ 1s", overload)
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatal("OverloadError must satisfy errors.Is(err, ErrQueueFull)")
		}
	}
	if got := metric(p, "pdpad_sheds_total", ""); got != 2 {
		t.Fatalf("shed %v submissions, want 2", got)
	}
	close(release)
	waitState(t, p, running.ID, Done)
	for _, id := range accepted {
		waitState(t, p, id, Done)
	}
	drainPool(t, p)
}

// TestChaosPanicMidDrain: a worker that crashes while the pool is draining
// fails its own run; the drain still completes gracefully and the queued run
// finishes.
func TestChaosPanicMidDrain(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	release := make(chan struct{})
	// worker_finish fires after the simulator returns — i.e. after release,
	// which we close only once the drain is underway.
	inj := faults.New(1, faults.Rule{Site: faults.SiteWorkerFinish, Kind: faults.KindPanic, Count: 1})
	p := New(Config{
		BaseWorkers: 1, MaxWorkers: 1,
		Simulate: blockingSim(t, &calls, release), Faults: inj,
	})
	victim, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, victim.ID, Running)

	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let Drain flip the draining flag
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	snap, err := p.Get(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Failed || !strings.Contains(snap.Err.Error(), "injected panic") {
		t.Fatalf("victim ended %s (err %v), want failed by recovered panic", snap.State, snap.Err)
	}
	surv, err := p.Get(survivor.ID)
	if err != nil {
		t.Fatal(err)
	}
	if surv.State != Done {
		t.Fatalf("survivor ended %s (err %v), want done", surv.State, surv.Err)
	}
	if got := metric(p, "pdpad_recovered_panics_total", "worker"); got != 1 {
		t.Fatalf("recovered panics %v, want 1", got)
	}
}

// TestChaosHangForcedDrainCancels: with no RunTimeout, a hung run is only
// recoverable by cancellation — a forced drain reclaims it and the worker
// goroutine exits.
func TestChaosHangForcedDrainCancels(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(1, faults.Rule{Site: faults.SiteWorkerStart, Kind: faults.KindHang})
	p := New(Config{Simulate: instantSim, Faults: inj})
	r, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, r.ID, Running)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err %v", err)
	}
	snap, err := p.Get(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Canceled || !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("hung run ended %s (err %v), want canceled", snap.State, snap.Err)
	}
}

// TestChaosUntouchedRunsByteIdentical: runs the injector never touches
// produce byte-identical results to a fault-free pool — fault handling has
// no blast radius beyond its target.
func TestChaosUntouchedRunsByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	// One worker keeps site occurrences in submission order, so the panic
	// deterministically hits the sacrificial first run.
	inj := faults.New(1, faults.Rule{Site: faults.SiteWorkerStart, Kind: faults.KindPanic, Count: 1})
	faulty := New(Config{BaseWorkers: 1, MaxWorkers: 1, Faults: inj})
	clean := New(Config{BaseWorkers: 1, MaxWorkers: 1})

	sac, err := faulty.Submit(tinySpec(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFailed(t, faulty, sac.ID)

	for seed := int64(1); seed <= 3; seed++ {
		fr, err := faulty.Submit(tinySpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := waitState(t, faulty, fr.ID, Done)
		cr, err := clean.Submit(tinySpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := waitState(t, clean, cr.ID, Done)
		if string(got.ResultJSON) != string(want.ResultJSON) {
			t.Fatalf("seed %d: result under injection differs from fault-free pool", seed)
		}
	}
	drainPool(t, faulty)
	drainPool(t, clean)
}

// TestChaosInvariantsHoldUnderRetry: a transient failure after a completed
// simulation forces a full re-run; both executions must satisfy every
// scheduling invariant.
func TestChaosInvariantsHoldUnderRetry(t *testing.T) {
	leakcheck.Check(t)
	inj := faults.New(1, faults.Rule{
		Site: faults.SiteWorkerFinish, Kind: faults.KindError, Transient: true, Count: 1,
	})
	var mu sync.Mutex
	var checkers []*invariant.Checker
	p := New(Config{
		MaxRetries: 1, RetryBackoff: time.Millisecond,
		Simulate: func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) {
			chk := invariant.New()
			mu.Lock()
			checkers = append(checkers, chk)
			mu.Unlock()
			ws, opts := spec.Facade()
			opts.Observer = pdpasim.ObserverFunc(chk.Observe)
			return pdpasim.RunContext(ctx, ws, opts)
		},
		Faults: inj,
	})
	r, err := p.Submit(tinySpec(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, r.ID, Done)
	if got := metric(p, "pdpad_run_retries_total", ""); got != 1 {
		t.Fatalf("retries %v, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(checkers) != 2 {
		t.Fatalf("simulated %d times, want 2 (original + retry)", len(checkers))
	}
	for i, chk := range checkers {
		if err := chk.Err(); err != nil {
			t.Errorf("attempt %d violated invariants: %v", i+1, err)
		}
	}
	drainPool(t, p)
}

// TestFollowRunSlowFollower: a follower whose emit blocks on its first event
// delays neither the run it follows nor any other: both reach done while it
// is wedged. Released, it receives every transition through the terminal
// one, and the pool winds down without leaking goroutines.
func TestFollowRunSlowFollower(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	release := make(chan struct{})
	p := New(Config{BaseWorkers: 1, MaxWorkers: 1, Simulate: blockingSim(t, &calls, release)})
	blocker, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	wedged, followed := followAsync(t, p, queued.ID, gate)
	<-wedged
	close(release)
	waitState(t, p, blocker.ID, Done)
	waitState(t, p, queued.ID, Done)
	later, err := p.Submit(tinySpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, later.ID, Done)

	close(gate)
	var states []string
	for _, ev := range <-followed {
		states = append(states, ev.State)
	}
	if want := []string{"queued", "running", "done"}; !slices.Equal(states, want) {
		t.Fatalf("wedged follower saw %v, want %v", states, want)
	}
	drainPool(t, p)
}

// TestChaosDeterministicAcrossReplays: the same seed and rules replayed on a
// fresh pool produce the same terminal states and counters — the property
// that makes every scenario above reproducible under -count=5.
func TestChaosDeterministicAcrossReplays(t *testing.T) {
	leakcheck.Check(t)
	type outcome struct {
		states  []State
		retries float64
		panics  float64
	}
	wantStates := []State{Failed, Done, Done}
	replay := func() outcome {
		inj := faults.New(42,
			faults.Rule{Site: faults.SiteWorkerStart, Kind: faults.KindPanic, Count: 1},
			faults.Rule{Site: faults.SiteWorkerStart, Kind: faults.KindError, Transient: true, After: 1, Count: 1},
		)
		p := New(Config{
			BaseWorkers: 1, MaxWorkers: 1,
			MaxRetries: 1, RetryBackoff: time.Millisecond,
			Simulate: instantSim, Faults: inj,
		})
		var out outcome
		for i, want := range wantStates {
			r, err := p.Submit(tinySpec(int64(i+1)), 0)
			if err != nil {
				t.Fatal(err)
			}
			out.states = append(out.states, waitState(t, p, r.ID, want).State)
		}
		out.retries = metric(p, "pdpad_run_retries_total", "")
		out.panics = metric(p, "pdpad_recovered_panics_total", "worker")
		drainPool(t, p)
		return out
	}
	first := replay()
	want := outcome{states: wantStates, retries: 1, panics: 1}
	for i, got := range []outcome{first, replay()} {
		if len(got.states) != 3 || got.states[0] != want.states[0] ||
			got.states[1] != want.states[1] || got.states[2] != want.states[2] ||
			got.retries != want.retries || got.panics != want.panics {
			t.Fatalf("replay %d: %+v, want %+v", i, got, want)
		}
	}
}
