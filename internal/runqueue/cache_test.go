package runqueue

import (
	"testing"

	"pdpasim/internal/leakcheck"
)

// TestCacheEvictionCounted: results displaced from the bounded LRU cache are
// counted in pdpad_cache_evictions_total, the evicted spec re-simulates on
// resubmission, and a still-cached spec keeps hitting.
func TestCacheEvictionCounted(t *testing.T) {
	leakcheck.Check(t)
	p := New(Config{BaseWorkers: 1, MaxWorkers: 1, CacheSize: 2, Simulate: instantSim})
	ids := make([]string, 0, 3)
	for seed := int64(1); seed <= 3; seed++ {
		r, err := p.Submit(tinySpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, p, r.ID, Done)
		ids = append(ids, r.ID)
	}
	if v, ok := p.Metrics().Value("pdpad_cache_evictions_total", ""); !ok || v != 1 {
		t.Fatalf("pdpad_cache_evictions_total = %v, %v; want 1, true (3 results through a 2-entry cache)", v, ok)
	}

	// Seed 1 was evicted: resubmitting re-simulates under a fresh ID.
	r, err := p.Submit(tinySpec(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit || r.Deduped || r.ID == ids[0] {
		t.Fatalf("evicted spec resolved to %+v, want a fresh run", r)
	}
	waitState(t, p, r.ID, Done)

	// Seed 3 is still cached (seed 2 was displaced by seed 1's re-run).
	hit, err := p.Submit(tinySpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.ID != ids[2] {
		t.Fatalf("cached spec resolved to %+v, want cache hit on %s", hit, ids[2])
	}
	if got := metric(p, "pdpad_cache_evictions_total", ""); got != 2 {
		t.Fatalf("evictions %v, want 2 after the re-run displaced another entry", got)
	}
	drainPool(t, p)
}
