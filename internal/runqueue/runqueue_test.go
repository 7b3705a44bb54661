package runqueue

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/leakcheck"
)

// tinySpec is a fast real-simulation spec; vary seed to get distinct keys.
func tinySpec(seed int64) Spec {
	return Spec{
		Workload: WorkloadSpec{Mix: "w1", Load: 0.6, WindowS: 60, Seed: seed},
		Options:  RunOptions{Policy: "equip", Seed: seed},
	}
}

// stubOutcome runs one real tiny simulation so stubbed SimulateFuncs can
// return a structurally valid Outcome.
var stubOutcome = sync.OnceValues(func() (*pdpasim.Outcome, error) {
	return pdpasim.RunContext(context.Background(),
		pdpasim.WorkloadSpec{Mix: "w1", Load: 0.4, Window: 30 * time.Second, Seed: 1},
		pdpasim.Options{Policy: pdpasim.Equipartition},
	)
})

// blockingSim returns a SimulateFunc that blocks until release is closed
// (or ctx is cancelled) and counts invocations.
func blockingSim(t *testing.T, calls *atomic.Int64, release <-chan struct{}) SimulateFunc {
	t.Helper()
	return func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) {
		calls.Add(1)
		select {
		case <-release:
			return stubOutcome()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitState polls until the run reaches want or the deadline passes.
// metric reads one series from the pool's registry (see obs.Registry.Value).
func metric(p *Pool, name, label string) float64 {
	v, _ := p.Metrics().Value(name, label)
	return v
}

func waitState(t *testing.T, p *Pool, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("run %s reached terminal state %s (err %v), want %s",
				id, snap.State, snap.Err, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached state %s", id, want)
	return Snapshot{}
}

func TestSpecKeyCanonicalization(t *testing.T) {
	// Spelling the defaults explicitly must not change the key.
	implicit := Spec{Workload: WorkloadSpec{Mix: "w3"}, Options: RunOptions{Policy: "pdpa"}}
	explicit := Spec{
		Workload: WorkloadSpec{Mix: "w3", Load: 1.0, NCPU: 60, WindowS: 300},
		Options: RunOptions{
			Policy: "pdpa", TargetEff: 0.7, HighEff: 0.9, Step: 4, BaseMPL: 4,
			MaxStableTransitions: 4, NoiseSigma: 0.01,
		},
	}
	if implicit.Key() != explicit.Key() {
		t.Fatal("explicit defaults changed the canonical key")
	}
	// PDPA parameters are irrelevant — and must not split the cache — for
	// non-PDPA policies.
	a := Spec{Workload: WorkloadSpec{Mix: "w1"}, Options: RunOptions{Policy: "irix"}}
	b := Spec{Workload: WorkloadSpec{Mix: "w1"}, Options: RunOptions{Policy: "irix", TargetEff: 0.5}}
	if a.Key() != b.Key() {
		t.Fatal("PDPA params changed an IRIX spec's key")
	}
	// Anything that changes the result changes the key.
	c := Spec{Workload: WorkloadSpec{Mix: "w1", Seed: 9}, Options: RunOptions{Policy: "irix"}}
	if a.Key() == c.Key() {
		t.Fatal("different seeds share a key")
	}
}

func TestSpecValidateSharedPath(t *testing.T) {
	bad := []Spec{
		{Workload: WorkloadSpec{Mix: "w9"}, Options: RunOptions{Policy: "pdpa"}},
		{Workload: WorkloadSpec{Mix: "w1"}, Options: RunOptions{Policy: "bogus"}},
		{Workload: WorkloadSpec{Mix: "w1", Load: -1}, Options: RunOptions{Policy: "pdpa"}},
		{Workload: WorkloadSpec{Mix: "w1", WindowS: -5}, Options: RunOptions{Policy: "pdpa"}},
		{Workload: WorkloadSpec{Mix: "w1"}, Options: RunOptions{Policy: "pdpa", TargetEff: 0.95, HighEff: 0.8}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if err := tinySpec(1).Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	p := New(Config{})
	if _, err := p.Submit(Spec{Workload: WorkloadSpec{Mix: "w9"}, Options: RunOptions{Policy: "pdpa"}}, 0); err == nil {
		t.Fatal("Submit accepted an invalid spec")
	}
}

// TestCacheHitIdenticalSpec: the second submission of an identical spec
// returns without re-simulating.
func TestCacheHitIdenticalSpec(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release) // never block: complete immediately
	p := New(Config{Simulate: blockingSim(t, &calls, release)})

	first, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Deduped {
		t.Fatalf("first submit misclassified: %+v", first)
	}
	waitState(t, p, first.ID, Done)

	second, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.ID != first.ID || second.State != Done {
		t.Fatalf("second submit not served from cache: %+v", second)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("simulated %d times, want 1", got)
	}
	snap, err := p.Get(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.ResultJSON) == 0 {
		t.Fatal("cached run has no result")
	}
	hits, misses := metric(p, "pdpad_cache_hits_total", ""), metric(p, "pdpad_cache_misses_total", "")
	if hits != 1 || misses != 1 {
		t.Fatalf("cache hits %v misses %v, want 1/1", hits, misses)
	}
}

// TestSingleflightConcurrentSubmits: concurrent identical submissions join
// one in-flight run.
func TestSingleflightConcurrentSubmits(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	p := New(Config{Simulate: blockingSim(t, &calls, release)})

	const n = 16
	results := make([]SubmitResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := p.Submit(tinySpec(7), 0)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	close(release)

	deduped := 0
	for _, r := range results {
		if r.ID != results[0].ID {
			t.Fatalf("submissions split across runs: %s vs %s", r.ID, results[0].ID)
		}
		if r.Deduped {
			deduped++
		}
	}
	if deduped != n-1 {
		t.Fatalf("%d of %d submissions deduped, want %d", deduped, n, n-1)
	}
	waitState(t, p, results[0].ID, Done)
	if got := calls.Load(); got != 1 {
		t.Fatalf("simulated %d times, want 1", got)
	}
}

// TestRealSimulationCacheRoundTrip exercises the default SimulateFunc end to
// end: a real simulation populates the cache, and the cached bytes match a
// direct facade run (determinism).
func TestRealSimulationCacheRoundTrip(t *testing.T) {
	p := New(Config{})
	res, err := p.Submit(tinySpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, p, res.ID, Done)
	ws, opts := tinySpec(3).Facade()
	direct, err := pdpasim.RunContext(context.Background(), ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := direct.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(snap.ResultJSON) {
		t.Fatal("pool result differs from direct facade run")
	}
}

// TestCancellationAbortsRealSimulation: cancelling a running run aborts the
// real simulator mid-flight, promptly.
func TestCancellationAbortsRealSimulation(t *testing.T) {
	p := New(Config{})
	// A deliberately heavy spec: a multi-hour submission window is seconds
	// of real compute, far longer than the cancellation latency.
	heavy := Spec{
		Workload: WorkloadSpec{Mix: "w2", Load: 1.0, WindowS: 4 * 3600, Seed: 11},
		Options:  RunOptions{Policy: "pdpa"},
	}
	res, err := p.Submit(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, res.ID, Running)
	start := time.Now()
	if _, err := p.Cancel(res.ID); err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, p, res.ID, Canceled)
	latency := time.Since(start)
	if !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", snap.Err)
	}
	if latency > 5*time.Second {
		t.Fatalf("cancellation took %v; not prompt", latency)
	}
	// A cancelled run must not poison the cache.
	again, err := p.Submit(heavy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit || again.Deduped {
		t.Fatalf("cancelled run satisfied a new submission: %+v", again)
	}
	if _, err := p.Cancel(again.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCancelQueuedRun: a queued run cancels without ever starting.
func TestCancelQueuedRun(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	p := New(Config{BaseWorkers: 1, MaxWorkers: 1, Simulate: blockingSim(t, &calls, release)})
	blocker, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := p.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Canceled {
		t.Fatalf("state %s, want canceled", snap.State)
	}
	if _, err := p.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, p, blocker.ID, Canceled)
	if got := calls.Load(); got > 1 {
		t.Fatalf("queued run simulated despite cancellation (%d calls)", got)
	}
}

// TestAdmissionHoldsDuringWarmup is the PDPA MPL rule applied to the pool:
// above base concurrency, a queued run is held while any in-flight run is
// still warming up, and admitted once the running set is stable.
func TestAdmissionHoldsDuringWarmup(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	const warmup = 400 * time.Millisecond
	p := New(Config{
		BaseWorkers: 1, MaxWorkers: 2, Warmup: warmup,
		Simulate: blockingSim(t, &calls, release),
	})

	first, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, first.ID, Running)

	second, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Base concurrency is saturated and the first run is inside warm-up:
	// the second must be held even though a slot (max=2) is free.
	time.Sleep(warmup / 4)
	if snap, err := p.Get(second.ID); err != nil || snap.State != Queued {
		t.Fatalf("run admitted during warm-up: state %v err %v", snap.State, err)
	}
	if d := metric(p, "pdpad_queue_depth", ""); d != 1 {
		t.Fatalf("queue depth %v, want 1", d)
	}
	// Once the first run is past warm-up the free slot may be handed out —
	// with no new submission or completion to trigger it.
	waitState(t, p, second.ID, Running)
	if got := metric(p, "pdpad_inflight_runs", ""); got != 2 {
		t.Fatalf("inflight %v, want 2", got)
	}
}

// TestAdmissionUnconditionalBelowBase: below the base level, admission never
// waits for warm-up (PDPA admits unconditionally below BaseMPL).
func TestAdmissionUnconditionalBelowBase(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	p := New(Config{
		BaseWorkers: 3, MaxWorkers: 3, Warmup: time.Hour,
		Simulate: blockingSim(t, &calls, release),
	})
	ids := make([]string, 3)
	for i := range ids {
		r, err := p.Submit(tinySpec(int64(i+1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = r.ID
	}
	for _, id := range ids {
		waitState(t, p, id, Running)
	}
}

// TestDeadlineWhileRunning: a per-run deadline aborts an overlong simulation.
func TestDeadlineWhileRunning(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{}) // never released: only the deadline can end it
	defer close(release)
	p := New(Config{Simulate: blockingSim(t, &calls, release)})
	res, err := p.Submit(tinySpec(1), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitState(t, p, res.ID, Failed)
	if !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline", snap.Err)
	}
}

// TestGracefulDrain: drain completes in-flight and queued runs, then
// rejects new work, leaving no goroutines behind.
func TestGracefulDrain(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	release := make(chan struct{})
	p := New(Config{BaseWorkers: 1, MaxWorkers: 1, Simulate: blockingSim(t, &calls, release)})
	a, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, a.ID, Running)

	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let Drain flip the draining flag
	if _, err := p.Submit(tinySpec(3), 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err %v, want ErrDraining", err)
	}
	close(release) // let the workers finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		snap, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Done {
			t.Fatalf("run %s state %s after graceful drain, want done", id, snap.State)
		}
	}
}

// TestForcedDrain: an expired drain context cancels the stragglers; the
// cancelled workers' goroutines exit.
func TestForcedDrain(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	p := New(Config{BaseWorkers: 1, MaxWorkers: 1, Simulate: blockingSim(t, &calls, release)})
	a, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, a.ID, Running)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		snap, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != Canceled {
			t.Fatalf("run %s state %s after forced drain, want canceled", id, snap.State)
		}
	}
}

// followAsync follows a run in the background. first closes once the first
// event is emitted; when hold is non-nil, that emit then waits for hold to
// close, wedging the follower. The events arrive on evs when FollowRun
// returns.
func followAsync(t *testing.T, p *Pool, id string, hold <-chan struct{}) (first <-chan struct{}, evs <-chan []client.Event) {
	firstc, evsc := make(chan struct{}), make(chan []client.Event, 1)
	go func() {
		var got []client.Event
		err := p.FollowRun(context.Background(), id, func(ev client.Event) {
			if got = append(got, ev); len(got) == 1 {
				close(firstc)
				if hold != nil {
					<-hold
				}
			}
		})
		if err != nil {
			t.Error(err)
		}
		evsc <- got
	}()
	return firstc, evsc
}

// follow collects a run's lifecycle events through FollowRun.
func follow(t *testing.T, p *Pool, id string) []client.Event {
	_, evs := followAsync(t, p, id, nil)
	return <-evs
}

// TestEventsLifecycle: a follower sees queued → running → done in order,
// each stamped when the run entered that state; a late follower gets the
// terminal event alone, stamped at the finish; an unknown run is an error.
func TestEventsLifecycle(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	p := New(Config{BaseWorkers: 1, MaxWorkers: 1, Simulate: blockingSim(t, &calls, release)})
	blocker, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	first, followed := followAsync(t, p, res.ID, nil)
	<-first
	close(release)
	evs := <-followed

	snap := waitState(t, p, res.ID, Done)
	want := []struct {
		state string
		at    time.Time
	}{{"queued", snap.Submitted}, {"running", snap.Started}, {"done", snap.Finished}}
	if len(evs) != len(want) {
		t.Fatalf("events %+v, want states queued, running, done", evs)
	}
	for i, w := range want {
		if ev := evs[i]; ev.RunID != res.ID || ev.State != w.state || !ev.At.Equal(w.at) || ev.Message != "" {
			t.Fatalf("event %d = %+v, want %s for %s at %v", i, ev, w.state, res.ID, w.at)
		}
	}

	late := waitState(t, p, blocker.ID, Done)
	if evs := follow(t, p, blocker.ID); len(evs) != 1 || evs[0].State != "done" || !evs[0].At.Equal(late.Finished) {
		t.Fatalf("late follow %+v, want one done event at %v", evs, late.Finished)
	}
	if err := p.FollowRun(context.Background(), "run-999999", func(client.Event) {
		t.Error("event emitted for an unknown run")
	}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown run: err %v, want ErrNotFound", err)
	}
}

// TestFollowTerminalMessage: a terminal event carries the run's error text,
// the same for a follower that watched the run end and one that came late.
func TestFollowTerminalMessage(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	p := New(Config{BaseWorkers: 1, MaxWorkers: 1, Simulate: blockingSim(t, &calls, release)})
	if _, err := p.Submit(tinySpec(1), 0); err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(tinySpec(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	first, followed := followAsync(t, p, queued.ID, nil)
	<-first
	if _, err := p.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	live := <-followed
	snap := waitState(t, p, queued.ID, Canceled)
	late := follow(t, p, queued.ID)
	for name, evs := range map[string][]client.Event{"live": live, "late": late} {
		last := evs[len(evs)-1]
		if last.State != "canceled" || last.Message != snap.Err.Error() || last.Message == "" {
			t.Fatalf("%s terminal event %+v, want canceled with message %q", name, last, snap.Err)
		}
	}
}

// TestQueueLimit: the FIFO bound is enforced by shedding.
func TestQueueLimit(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	p := New(Config{BaseWorkers: 1, MaxWorkers: 1, QueueLimit: 1, Simulate: blockingSim(t, &calls, release)})
	if _, err := p.Submit(tinySpec(1), 0); err != nil {
		t.Fatal(err)
	}
	// Give the first submission time to be admitted so the second occupies
	// the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for metric(p, "pdpad_inflight_runs", "") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Submit(tinySpec(2), 0); err != nil {
		t.Fatal(err)
	}
	_, err := p.Submit(tinySpec(3), 0)
	var overload *OverloadError
	if !errors.As(err, &overload) || !errors.Is(err, ErrQueueFull) || overload.Depth != 1 {
		t.Fatalf("err %v, want an OverloadError at depth 1 matching ErrQueueFull", err)
	}
}

// TestStatsWallHistogram: completed runs land in the wall-time histogram.
func TestStatsWallHistogram(t *testing.T) {
	p := New(Config{})
	r, err := p.Submit(tinySpec(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, r.ID, Done)
	count, sum := metric(p, "pdpad_run_wall_seconds_count", ""), metric(p, "pdpad_run_wall_seconds_sum", "")
	if count != 1 || sum <= 0 {
		t.Fatalf("wall histogram count %v sum %v", count, sum)
	}
}
