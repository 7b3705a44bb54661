package runqueue

import (
	"context"
	"sync/atomic"
	"testing"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/leakcheck"
)

// countingPool starts a one-worker pool whose history holds limit runs and
// whose simulator counts its calls.
func countingPool(limit int) (*Pool, *atomic.Int64) {
	calls := new(atomic.Int64)
	sim := func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) {
		calls.Add(1)
		return instantSim(ctx, spec)
	}
	return New(Config{BaseWorkers: 1, MaxWorkers: 1, Simulate: sim, historyLimit: limit}), calls
}

// submitDone submits seed's spec and follows its run to the end.
func submitDone(t *testing.T, p *Pool, seed int64) SubmitResult {
	t.Helper()
	res, err := p.Submit(tinySpec(seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FollowRun(context.Background(), res.ID, func(client.Event) {}); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCacheEviction: the run history is the result cache, bounded by the
// history alone. A done run past the 128 results an LRU cache once kept
// still answers a cache hit, and renews its run; a run the history forgot
// re-simulates under a fresh ID.
func TestCacheEviction(t *testing.T) {
	leakcheck.Check(t)
	const limit = 130
	p, calls := countingPool(limit)
	defer drainPool(t, p)
	ids := map[int64]string{}
	for seed := int64(1); seed <= limit; seed++ {
		ids[seed] = submitDone(t, p, seed).ID
	}

	// Seed 1 is the oldest of 130 done runs, and the history holds it.
	if hit := submitDone(t, p, 1); !hit.CacheHit || hit.ID != ids[1] {
		t.Fatalf("seed 1 resolved to %+v, want a cache hit on %s", hit, ids[1])
	}
	// The hit renewed seed 1, so a new run makes the history forget seed 2.
	submitDone(t, p, limit+1)
	if _, err := p.Get(ids[2]); err == nil {
		t.Fatalf("run %s outlived the history bound", ids[2])
	}
	if again := submitDone(t, p, 2); again.CacheHit || again.Deduped || again.ID == ids[2] {
		t.Fatalf("forgotten seed 2 resolved to %+v, want a fresh run", again)
	}
	if hit := submitDone(t, p, 1); !hit.CacheHit || hit.ID != ids[1] {
		t.Fatalf("seed 1 resolved to %+v, want a cache hit on %s", hit, ids[1])
	}
	if got := calls.Load(); got != limit+2 {
		t.Fatalf("simulated %d times, want %d", got, limit+2)
	}
}

// TestCacheEvictionCounted: a result the history displaced counts as a
// miss when its spec returns and re-simulates, and a result the history
// still holds keeps counting as a hit.
func TestCacheEvictionCounted(t *testing.T) {
	leakcheck.Check(t)
	p, calls := countingPool(2)
	defer drainPool(t, p)
	ids := map[int64]string{}
	for seed := int64(1); seed <= 3; seed++ {
		ids[seed] = submitDone(t, p, seed).ID
	}
	if hits, misses := metric(p, "pdpad_cache_hits_total", ""), metric(p, "pdpad_cache_misses_total", ""); hits != 0 || misses != 3 {
		t.Fatalf("cache hits %v, misses %v; want 0 and 3 after three distinct runs", hits, misses)
	}

	// Seed 1 was displaced by seed 3: resubmitting re-simulates under a
	// fresh ID, and the re-run displaces seed 2 in turn.
	if r := submitDone(t, p, 1); r.CacheHit || r.Deduped || r.ID == ids[1] {
		t.Fatalf("displaced spec resolved to %+v, want a fresh run", r)
	}
	if _, err := p.Get(ids[2]); err == nil {
		t.Fatalf("run %s outlived the history bound", ids[2])
	}

	// Seed 3 is still held.
	if hit := submitDone(t, p, 3); !hit.CacheHit || hit.ID != ids[3] {
		t.Fatalf("held spec resolved to %+v, want a cache hit on %s", hit, ids[3])
	}
	if hits, misses := metric(p, "pdpad_cache_hits_total", ""), metric(p, "pdpad_cache_misses_total", ""); hits != 1 || misses != 4 {
		t.Fatalf("cache hits %v, misses %v; want 1 and 4", hits, misses)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("simulated %d times, want 4", got)
	}
}
