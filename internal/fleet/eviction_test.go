package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/runqueue"
)

// TestHistoryEvictionScript replays the bounded-history script the pool's
// TestHistoryEvictionScript replays (internal/runqueue/testdata), against a
// one-node coordinator: both backends must list the same run IDs in the
// same order after every step, restart included, and admit a failed seed
// fresh every time.
func TestHistoryEvictionScript(t *testing.T) {
	raw, err := os.ReadFile("../runqueue/testdata/eviction-script.json")
	if err != nil {
		t.Fatal(err)
	}
	var script struct {
		Limit    int   `json:"limit"`
		LongSeed int64 `json:"long_seed"`
		FailSeed int64 `json:"fail_seed"`
		Steps    []struct {
			Do   string   `json:"do"`
			Seed int64    `json:"seed"`
			Want []string `json:"want"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(raw, &script); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	f := startDurableFleet(t, 1, func(int) runqueue.Config {
		cfg := fastNodeConfig(0)
		fast := cfg.Simulate
		cfg.Simulate = func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
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
			return fast(ctx, spec)
		}
		return cfg
	})
	setLimit := func() {
		f.c.coord.mu.Lock()
		f.c.coord.runs.Limit = script.Limit
		f.c.coord.mu.Unlock()
	}
	setLimit()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	submit := func(seed int64) client.SubmitResult {
		t.Helper()
		sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
			Workload: client.Workload{Mix: "w1", Seed: seed},
			Options:  client.RunOptions{Policy: "equip"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}

	var long string
	for i, step := range script.Steps {
		switch step.Do {
		case "submit", "resubmit":
			sub := submit(step.Seed)
			if sub.CacheHit != (step.Do == "resubmit") {
				t.Fatalf("step %d: %s seed %d got %+v", i, step.Do, step.Seed, sub)
			}
			if _, err := f.cli.WaitRun(ctx, sub.ID, 0); err != nil {
				t.Fatal(err)
			}
		case "start_long":
			long = submit(script.LongSeed).ID
		case "finish_long":
			close(release)
			if _, err := f.cli.WaitRun(ctx, long, 0); err != nil {
				t.Fatal(err)
			}
		case "fail":
			sub := submit(script.FailSeed)
			if sub.CacheHit || sub.Deduped {
				t.Fatalf("step %d: failed seed resubmitted got %+v, want a fresh run", i, sub)
			}
			if v, err := f.cli.WaitRun(ctx, sub.ID, 0); err != nil || v.State != "failed" {
				t.Fatalf("step %d: failed seed ended %s (%v), want failed", i, v.State, err)
			}
		case "restart":
			f.c.Kill()
			f.restartCoordinator()
			setLimit()
			f.waitHealthy(ctx, 1)
		default:
			t.Fatalf("step %d: unknown op %q", i, step.Do)
		}
		page, err := f.cli.Runs(ctx, client.ListOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var listed []string
		terminal := 0
		for _, v := range page.Runs {
			listed = append(listed, v.ID)
			if v.Terminal() {
				terminal++
			}
		}
		if fmt.Sprint(listed) != fmt.Sprint(step.Want) {
			t.Fatalf("step %d (%s %d): coordinator lists %v, want %v", i, step.Do, step.Seed, listed, step.Want)
		}
		if terminal > script.Limit {
			t.Fatalf("step %d: %d terminal runs listed, limit %d", i, terminal, script.Limit)
		}
	}
}
