package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pdpasim/internal/faults"
)

const validDoc = `
name: full
description: exercises every schema corner
seed: 9
pool:
  base_workers: 1
  max_workers: 2
  warmup: 1ms
  queue_limit: 8
  run_timeout: 50ms
  max_retries: 2
defaults:
  workload: {mix: w2, load: 0.7, ncpu: 16, window_s: 30, seed: 4, uniform_request: 8}
  options: {policy: pdpa, target_eff: 0.6, step: 2}
faults:
  - "worker_start:error transient count=2"
  - "cache_hit:delay delay=5ms"
events:
  - submit: {name: a, workload: {seed: 11}, options: {policy: equip}}
  - arrivals: {prefix: b, count: 2, pattern: diurnal, load_min: 0.2, load_max: 0.8, period: 2}
  - set_policy: {policy: gang}
  - wait: {run: a, state: done}
  - wait_all:
  - cancel: {run: b1}
assertions:
  - state: {run: a, is: done}
  - states: {prefix: b, are: [done, canceled]}
  - admission: {run: a, is: fresh}
  - error_contains: {run: b1, substr: canceled}
  - metric: {name: pdpad_sheds_total, equals: 0}
  - metric: {name: pdpad_run_wall_seconds_count, min: 1, max: 10}
  - outcome: {run: a, policy: Equip, jobs: 3, makespan_min_s: 1, makespan_max_s: 500}
  - same_result: {runs: [a, b0]}
  - injected: {site: worker_start, count: 2}
  - invariants:
  - no_leaks:
`

func TestParseFullSchema(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "full" || s.Seed != 9 {
		t.Fatalf("header %q/%d", s.Name, s.Seed)
	}
	if s.Pool.RunTimeout != 50*time.Millisecond || s.Pool.QueueLimit != 8 {
		t.Fatalf("pool %+v", s.Pool)
	}
	if s.Defaults.Workload.Mix != "w2" || s.Defaults.Options.TargetEff != 0.6 {
		t.Fatalf("defaults %+v", s.Defaults)
	}
	if len(s.Faults) != 2 || s.Faults[0].Site != faults.SiteWorkerStart || !s.Faults[0].Transient {
		t.Fatalf("faults %+v", s.Faults)
	}
	if len(s.Events) != 6 || len(s.Assertions) != 11 {
		t.Fatalf("%d events, %d assertions", len(s.Events), len(s.Assertions))
	}
	sub := s.Events[0].Submit
	if sub.Name != "a" || sub.Workload.Seed != 11 || sub.Options.Policy != "equip" {
		t.Fatalf("submit %+v", sub)
	}
	arr := s.Events[1].Arrivals
	if arr.Pattern != "diurnal" || arr.LoadMax != 0.8 || arr.Period != 2 {
		t.Fatalf("arrivals %+v", arr)
	}
	m := s.Assertions[5].Metric
	if m.Name != "pdpad_run_wall_seconds_count" || *m.Min != 1 || *m.Max != 10 {
		t.Fatalf("metric %+v", m)
	}
}

const fleetDoc = `
name: fleet-full
seed: 3
fleet:
  nodes: 3
  placement: least_loaded
  heartbeat: 25ms
  unhealthy_after: 75ms
  dead_after: 150ms
  node_faults:
    - {node: 1, rule: "worker_start:delay delay=5ms count=1"}
defaults:
  workload: {mix: w1}
  options: {policy: equip}
events:
  - submit: {name: a}
  - cordon_node: {node: 2}
  - kill_node: {node: 1}
  - drain_node: {node: 0}
  - wait: {run: a, state: done}
assertions:
  - node_states: {are: [drained, drained, cordoned]}
`

func TestParseFleetSchema(t *testing.T) {
	s, err := Parse([]byte(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Fleet
	if f == nil || f.Nodes != 3 || f.Placement != "least_loaded" {
		t.Fatalf("fleet %+v", f)
	}
	if f.Heartbeat != 25*time.Millisecond || f.DeadAfter != 150*time.Millisecond {
		t.Fatalf("fleet timing %+v", f)
	}
	if len(f.NodeFaults) != 1 || f.NodeFaults[0].Node != 1 || f.NodeFaults[0].Rule.Site != faults.SiteWorkerStart {
		t.Fatalf("node_faults %+v", f.NodeFaults)
	}
	if s.Events[1].CordonNode.Node != 2 || s.Events[2].KillNode.Node != 1 || s.Events[3].DrainNode.Node != 0 {
		t.Fatalf("node events %+v", s.Events)
	}
	ns := s.Assertions[0].NodeStates
	if ns == nil || len(ns.Are) != 3 || ns.Are[2] != "cordoned" {
		t.Fatalf("node_states %+v", ns)
	}
}

func TestParseFleetSchemaErrors(t *testing.T) {
	base := "name: x\nevents:\n  - submit: {name: a}\n"
	withFleet := "name: x\nfleet: {nodes: 2}\nevents:\n  - submit: {name: a}\n"
	fleetSpec := "name: x\nfleet: {nodes: 2}\ndefaults:\n  workload: {mix: w1}\n  options: {policy: equip}\nevents:\n  - submit: {name: a}\n"
	cases := map[string]string{
		base + "fleet: {}\n":                                                            "positive nodes",
		base + "fleet: {nodes: 2, placement: psychic}\n":                                "placement",
		base + "fleet: {nodes: 2, pets: 1}\n":                                           "unknown key",
		base + "fleet: {nodes: 2, heartbeat: soon}\n":                                   "bad duration",
		base + "fleet: {nodes: 2, node_faults: [{rule: \"worker_start:panic\"}]}\n":     "out of range",
		base + "fleet: {nodes: 2, node_faults: [{node: 0, rule: \"nowhere:panic\"}]}\n": "unknown site",
		base + "assertions:\n  - node_states: {are: [healthy]}\n":                       "needs a fleet",
		withFleet + "assertions:\n  - node_states: {are: [confused]}\n":                 "not a node state",
		withFleet + "assertions:\n  - node_states: {}\n":                                "needs are",
		base + "  - kill_node: {node: 0}\n":                                             "needs a fleet",
		withFleet + "  - kill_node: {node: 5}\n":                                        "out of range",
		withFleet + "  - cordon_node: {}\n":                                             "out of range",
		withFleet + "  - drain_node: {node: -1}\n":                                      "out of range",
		// Specs the daemon would reject fail at parse time, not at run time.
		fleetSpec + "  - submit_sweep: {name: s, policies: [pdpa], mixes: [w9]}\n":              "unknown mix",
		fleetSpec + "  - submit_sweep: {name: s, policies: [psychic], mixes: [w1]}\n":           "unknown policy",
		fleetSpec + "  - submit_sweep: {name: s, policies: [pdpa], mixes: [w1], loads: [-1]}\n": "negative load",
		strings.Replace(fleetSpec, "nodes: 2", "nodes: 2, min_nodes: -1", 1):                    "must not be negative",
		fleetSpec + "assertions:\n  - reconciled_runs: {min: 2, max: 1}\n":                      "min 2 > max 1",
	}
	for src, wantSub := range cases {
		_, err := Parse([]byte(src))
		if err == nil {
			t.Errorf("%q: parsed, want error containing %q", src, wantSub)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%q: error %q, want substring %q", src, err.Error(), wantSub)
		}
	}
}

func TestParseSchemaErrors(t *testing.T) {
	base := "name: x\nevents:\n  - submit: {name: a}\n"
	spec := "name: x\ndefaults:\n  workload: {mix: w1}\n  options: {policy: equip}\nevents:\n  - submit: {name: a}\n"
	cases := map[string]string{
		"events:\n  - submit: {name: a}\n":                                 "needs a name",
		"name: x\n":                                                        "no events",
		base + "bogus: 1\n":                                                "unknown key",
		base + "pool: {workers: 2}\n":                                      "unknown key",
		base + "pool: {cache_size: 2}\n":                                   "unknown key",
		base + "pool: {shed_depth: 2}\n":                                   "unknown key",
		base + "pool: {retry_backoff: 1ms}\n":                              "unknown key",
		base + "fleet: {nodes: 1, join_backlog: 1}\n":                      "unknown key",
		base + "pool: {warmup: fast}\n":                                    "bad duration",
		base + "seed: many\n":                                              "must be an integer",
		base + "faults:\n  - \"nowhere:panic\"\n":                          "unknown site",
		base + "faults:\n  - 7\n":                                          "rule string",
		"name: x\nevents:\n  - submit: {name: a}\n  - submit: {name: a}\n": "duplicate run name",
		"name: x\nevents:\n  - wait: {run: ghost}\n":                       "before any event names it",
		"name: x\nevents:\n  - submit: {name: a}\n  - wait: {run: a, state: sideways}\n": "invalid",
		"name: x\nevents:\n  - submit: {name: a, nonsense: 1}\n":                         "unknown key",
		"name: x\nevents:\n  - arrivals: {prefix: p}\n":                                  "positive count",
		"name: x\nevents:\n  - arrivals: {prefix: p, count: 2, pattern: tidal}\n":        "invalid",
		// Arrivals are bounded before their names are enumerated, so this
		// fails in microseconds rather than after building 1e8 names.
		"name: x\nevents:\n  - arrivals: {prefix: p, count: 100000000}\n":                                    "past 10000 generated arrivals",
		"name: x\nevents:\n  - arrivals: {prefix: p, count: 6000}\n  - arrivals: {prefix: q, count: 6000}\n": "past 10000 generated arrivals",
		base + "assertions:\n  - state: {run: a, is: paused}\n":                                              "not a terminal state",
		base + "assertions:\n  - admission: {run: a, is: teleported}\n":                                      "invalid",
		base + "assertions:\n  - metric: {name: m}\n":                                                        "needs equals, min, or max",
		base + "assertions:\n  - metric: {name: m, equals: 1, min: 0}\n":                                     "excludes",
		base + "assertions:\n  - same_result: {runs: [a]}\n":                                                 "at least two",
		base + "assertions:\n  - state: {run: ghost, is: done}\n":                                            "before any event names it",
		base + "assertions:\n  - haunted: {}\n":                                                              "unknown assertion",
		base + "assertions:\n  - states: {prefix: a, are: [done], all: done}\n":                              "exactly one of",
		// Specs the daemon would reject fail at parse time, not at run time.
		"name: x\nevents:\n  - submit: {name: a, workload: {mix: w9}}\n":                           "unknown mix",
		spec + "  - submit: {name: b, workload: {load: -1}}\n":                                     "negative load",
		spec + "  - set_policy: {policy: psychic}\n  - submit: {name: b}\n":                        "unknown policy",
		spec + "  - submit: {name: b, options: {policy: pdpa, target_eff: 2}}\n":                   "target_eff 2 out of range",
		"name: x\ndefaults: {workload: {mix: w1}}\nevents:\n  - arrivals: {prefix: p, count: 2}\n": "unknown policy",
		spec + "pool: {base_workers: -1}\n":                                                        "pool.base_workers must not be negative",
		spec + "pool: {queue_limit: -4}\n":                                                         "pool.queue_limit must not be negative",
		spec + "assertions:\n  - metric: {name: m, min: 3, max: 1}\n":                              "min 3 > max 1",
		spec + "assertions:\n  - outcome: {run: a, makespan_min_s: 9, makespan_max_s: 1}\n":        "makespan_min_s 9 > makespan_max_s 1",
	}
	for src, wantSub := range cases {
		_, err := Parse([]byte(src))
		if err == nil {
			t.Errorf("%q: parsed, want error containing %q", src, wantSub)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%q: error %T, want *ParseError", src, err)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%q: error %q, want substring %q", src, err.Error(), wantSub)
		}
	}
}
