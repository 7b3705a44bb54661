package scenario

import (
	"bytes"
	"strings"
	"testing"

	"pdpasim/internal/leakcheck"
)

// mustRun parses and executes src, failing the test with the rendered text
// report if the scenario does not pass.
func mustRun(t *testing.T, src string) *Report {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep := Run(s)
	if !rep.Pass {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("scenario failed:\n%s", buf.String())
	}
	return rep
}

// TestRunSubmitWaitAssert: the minimal scenario — one submission, one wait,
// state/outcome/metric assertions against a real simulation.
func TestRunSubmitWaitAssert(t *testing.T) {
	leakcheck.Check(t)
	rep := mustRun(t, `
name: smoke
seed: 7
defaults:
  workload: {mix: w1, load: 0.6, ncpu: 32, window_s: 60, seed: 5}
  options: {policy: equip}
events:
  - submit: {name: a}
  - wait: {run: a, state: done}
assertions:
  - state: {run: a, is: done}
  - outcome: {run: a, policy: Equip, workload: w1-load60, jobs: 4}
  - metric: {name: pdpad_runs_started_total, equals: 1}
  - invariants:
  - no_leaks:
`)
	if len(rep.Submissions) != 1 || rep.Submissions[0].Admission != admFresh {
		t.Fatalf("submissions %+v", rep.Submissions)
	}
}

// TestRunPolicySwitch: set_policy mid-run changes the template for later
// submissions; both runs complete under their own regime.
func TestRunPolicySwitch(t *testing.T) {
	leakcheck.Check(t)
	mustRun(t, `
name: switch
defaults:
  workload: {mix: w1, load: 0.6, ncpu: 32, window_s: 60, seed: 5}
  options: {policy: equip}
events:
  - submit: {name: before}
  - set_policy: {policy: pdpa}
  - submit: {name: after}
  - wait_all:
assertions:
  - outcome: {run: before, policy: Equip}
  - outcome: {run: after, policy: PDPA}
  - metric: {name: pdpad_cache_hits_total, equals: 0}
`)
}

// TestRunFaultAndCancel: an injected hang is reclaimed by cancellation; the
// pool serves the next run.
func TestRunFaultAndCancel(t *testing.T) {
	leakcheck.Check(t)
	mustRun(t, `
name: cancel-hang
defaults:
  workload: {mix: w1, load: 0.6, ncpu: 32, window_s: 60, seed: 5}
  options: {policy: equip}
faults:
  - "worker_start:hang count=1"
events:
  - submit: {name: hung}
  - wait: {run: hung, state: running}
  - cancel: {run: hung}
  - wait: {run: hung, state: canceled}
  - submit: {name: ok, workload: {seed: 6}}
  - wait: {run: ok, state: done}
assertions:
  - state: {run: hung, is: canceled}
  - state: {run: ok, is: done}
  - injected: {site: worker_start, count: 1}
  - no_leaks:
`)
}

// TestRunDeterministicReport: the same scenario at the same seed renders
// byte-identical JSON reports across executions.
func TestRunDeterministicReport(t *testing.T) {
	leakcheck.Check(t)
	src := `
name: det
seed: 42
defaults:
  workload: {mix: w1, load: 0.5, ncpu: 32, window_s: 60}
  options: {policy: equip}
events:
  - arrivals: {prefix: d, count: 3}
  - wait_all:
assertions:
  - states: {prefix: d, all: done}
`
	render := func() string {
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Run(s).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	if !strings.Contains(first, `"pass": true`) {
		t.Fatalf("report did not pass:\n%s", first)
	}
	if second := render(); second != first {
		t.Fatalf("reports diverge:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestRunSeedOverrideReshuffles: arrivals derive workload seeds from the
// master seed, so a different -seed produces different generated workloads
// (different result cache keys) while pinned submissions stay put.
func TestRunSeedOverrideReshuffles(t *testing.T) {
	leakcheck.Check(t)
	src := `
name: reseed
defaults:
  workload: {mix: w1, load: 0.5, ncpu: 32, window_s: 60}
  options: {policy: equip}
events:
  - arrivals: {prefix: r, count: 2}
  - wait_all:
assertions:
  - states: {prefix: r, all: done}
`
	ids := func(seed int64) []string {
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		s.Seed = seed
		rep := Run(s)
		if !rep.Pass {
			t.Fatalf("seed %d failed", seed)
		}
		var out []string
		for _, sub := range rep.Submissions {
			out = append(out, sub.ID)
		}
		return out
	}
	a, b := ids(1), ids(2)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("submissions %v / %v", a, b)
	}
}

// TestRunHTTPRequestFaultOnPool: a pool scenario is served over the v1 wire
// like a fleet's, so http_request rules fire on it too. The delay hits the
// first request (the submit) and the run still completes.
func TestRunHTTPRequestFaultOnPool(t *testing.T) {
	leakcheck.Check(t)
	mustRun(t, `
name: http-delay
defaults:
  workload: {mix: w1, load: 0.6, ncpu: 32, window_s: 60, seed: 5}
  options: {policy: equip}
faults:
  - "http_request:delay delay=20ms count=1"
events:
  - submit: {name: a}
  - wait: {run: a, state: done}
assertions:
  - state: {run: a, is: done}
  - injected: {site: http_request, count: 1}
  - no_leaks:
`)
}

// TestRunNodeHeartbeatFault: a node_heartbeat rule reaches the node's agent,
// which swallows the beat; the node stays healthy through one lost beat. The
// worker_start delay keeps the run in flight for ten heartbeat intervals.
func TestRunNodeHeartbeatFault(t *testing.T) {
	mustRun(t, `
name: lost-beat
seed: 1
fleet:
  nodes: 1
  heartbeat: 10ms
  node_faults:
    - {node: 0, rule: "node_heartbeat:error count=1"}
    - {node: 0, rule: "worker_start:delay delay=100ms count=1"}
defaults:
  workload: {mix: w1, load: 0.6, ncpu: 32, window_s: 60, seed: 1}
  options: {policy: equip}
events:
  - submit: {name: r}
  - wait: {run: r, state: done}
assertions:
  - injected: {site: node_heartbeat, count: 1}
  - node_states: {are: [healthy]}
`)
}
