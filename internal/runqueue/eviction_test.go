package runqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/store"
)

// evictionScript is the bounded-history script both backends replay: the
// pool here, a one-node fleet coordinator in internal/fleet. Each step
// lists the run IDs the backend must list afterwards, newest first, so the
// two backends agree run for run.
type evictionScript struct {
	Limit    int   `json:"limit"`
	LongSeed int64 `json:"long_seed"`
	FailSeed int64 `json:"fail_seed"`
	Steps    []struct {
		// Do is submit (a fresh spec, waited for), resubmit (a cache hit on
		// an earlier seed), start_long (the long run, not waited for),
		// finish_long (release it and wait), fail (the seed whose simulation
		// fails, admitted fresh each time and waited for), or restart (on
		// the same store).
		Do   string   `json:"do"`
		Seed int64    `json:"seed"`
		Want []string `json:"want"`
	} `json:"steps"`
}

func loadEvictionScript(t *testing.T) evictionScript {
	t.Helper()
	raw, err := os.ReadFile("testdata/eviction-script.json")
	if err != nil {
		t.Fatal(err)
	}
	var s evictionScript
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHistoryEvictionScript replays the shared eviction script against a
// pool: past the bound the least recently used terminal run is forgotten,
// a cache hit renews a run, a long run settling last outlives shorter ones,
// a failed run answers no resubmission, live or recovered, and a restart
// rebuilds the same history in finish order.
func TestHistoryEvictionScript(t *testing.T) {
	script := loadEvictionScript(t)
	release := make(chan struct{})
	sim := func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) {
		if spec.Workload.Seed == script.FailSeed {
			return nil, errors.New("simulation failed")
		}
		if spec.Workload.Seed == script.LongSeed {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return instantSim(ctx, spec)
	}
	dir := t.TempDir()
	st := openStore(t, dir)
	p := New(Config{Store: st, Simulate: sim, historyLimit: script.Limit})
	defer func() { drainClose(t, p, st) }()

	var long string
	for i, step := range script.Steps {
		switch step.Do {
		case "submit", "resubmit":
			res, err := p.Submit(tinySpec(step.Seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit != (step.Do == "resubmit") {
				t.Fatalf("step %d: %s seed %d got %+v", i, step.Do, step.Seed, res)
			}
			waitState(t, p, res.ID, Done)
		case "start_long":
			res, err := p.Submit(tinySpec(script.LongSeed), 0)
			if err != nil {
				t.Fatal(err)
			}
			long = res.ID
		case "finish_long":
			close(release)
			waitState(t, p, long, Done)
		case "fail":
			res, err := p.Submit(tinySpec(script.FailSeed), 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit || res.Deduped {
				t.Fatalf("step %d: failed seed resubmitted got %+v, want a fresh run", i, res)
			}
			waitState(t, p, res.ID, Failed)
		case "restart":
			drainClose(t, p, st)
			st = openStore(t, dir)
			p = New(Config{Store: st, Simulate: sim, historyLimit: script.Limit})
		default:
			t.Fatalf("step %d: unknown op %q", i, step.Do)
		}
		var listed []string
		terminal := 0
		for _, snap := range p.Runs() {
			listed = append(listed, snap.ID)
			if snap.State.Terminal() {
				terminal++
			}
		}
		if fmt.Sprint(listed) != fmt.Sprint(step.Want) {
			t.Fatalf("step %d (%s %d): pool lists %v, want %v", i, step.Do, step.Seed, listed, step.Want)
		}
		if terminal > script.Limit {
			t.Fatalf("step %d: %d terminal runs listed, limit %d", i, terminal, script.Limit)
		}
	}
}

// BenchmarkPoolSubmitAtFullHistory measures a submission against a pool
// whose history is full (DefaultHistoryLimit finished runs): "fresh" submits
// a new spec and waits for it, so every op settles a run and evicts one;
// "hit" resubmits a cached spec, so every op serves a cache hit and renews
// its run; "durable" is "fresh" on a pool with a store, so every op also
// journals the settled run and erases the forgotten one, and the
// compactions that garbage triggers are reported per op.
func BenchmarkPoolSubmitAtFullHistory(b *testing.B) {
	wait := func(p *Pool, seed int64) SubmitResult {
		res, err := p.Submit(tinySpec(seed), 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.FollowRun(context.Background(), res.ID, func(client.Event) {}); err != nil {
			b.Fatal(err)
		}
		return res
	}
	full := func(st *store.Store) *Pool {
		p := New(Config{Simulate: instantSim, Store: st})
		for seed := int64(1); seed <= DefaultHistoryLimit; seed++ {
			wait(p, seed)
		}
		return p
	}
	b.Run("fresh", func(b *testing.B) {
		p := full(nil)
		defer p.Drain(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wait(p, int64(DefaultHistoryLimit+1+i))
		}
	})
	b.Run("hit", func(b *testing.B) {
		p := full(nil)
		defer p.Drain(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Any run the history holds answers a hit; the newest 64 keep
			// the rung comparable with earlier recordings.
			if res := wait(p, DefaultHistoryLimit-int64(i%64)); !res.CacheHit {
				b.Fatalf("op %d: %+v, want a cache hit", i, res)
			}
		}
	})
	b.Run("durable", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		p := full(st)
		defer p.Drain(context.Background())
		before := st.Stats().Compactions
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wait(p, int64(DefaultHistoryLimit+1+i))
		}
		b.StopTimer()
		b.ReportMetric(float64(st.Stats().Compactions-before)/float64(b.N), "compactions/op")
	})
}
