// Package scenario is the stress/chaos DSL: a YAML file declares a worker
// pool (or a coordinator + node fleet), a default workload/options template,
// seeded fault-injection rules at the internal/faults sites, a timeline of
// events (single and bursty arrivals, diurnal load phases, a mid-run policy
// switch, cancellation, node and coordinator failures, sweeps), and
// assertions on the outcome (exact terminal run states, admission verdicts,
// metric bounds read from the obs registry, byte-identical-result checks,
// invariant-checker verdicts, goroutine-leak checks). The runner executes
// the scenario deterministically — same seed, same report, byte for byte —
// and renders a pass/fail report as text or JSON.
//
// There is one runner and one path: a client.Client drives the v1 wire of
// an in-process daemon built by fleet.StartDaemon, as pdpad builds it: the
// scenario's pool or, with a fleet: stanza, a coordinator that node daemons
// join. Submit, status, cancel, sweeps and the final drain-and-freeze are
// written once; the node and coordinator events are the fleet-only part
// (fleet.go).
//
// The schema is the Go types below, keyed by their json tags: the
// workload:, options: and submit_sweep: bodies are the v1 wire types
// (client.Workload, client.RunOptions, client.SweepSpec), so the DSL
// accepts exactly what a POST to the daemon accepts. Parse decodes strictly
// and Validate checks values, cross-references, and every spec the
// timeline can submit against the daemon's own validation: a scenario that
// runs is a scenario the runner fully understood.
package scenario

import (
	"reflect"
	"time"

	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/runqueue"
)

// Scenario is one parsed, validated scenario file.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Seed is the master seed: it drives the fault injector and derives the
	// workload seeds of generated arrivals. Explicit workload.seed fields in
	// the file are never touched, so assertions tied to a pinned workload
	// survive a seed override.
	Seed int64      `json:"seed"`
	Pool PoolParams `json:"pool"`
	// Fleet, when set, serves an in-process coordinator plus node fleet
	// (each node an independent pool sized by Pool) instead of a bare
	// pool; events and assertions flow through the same v1 HTTP surface
	// either way.
	Fleet *FleetParams `json:"fleet"`
	// Defaults is the spec template events submit; per-event overrides merge
	// onto it field by field.
	Defaults runqueue.Spec `json:"defaults"`
	// Faults are the injection rules, in the shared faults text syntax.
	Faults     []faults.Rule `json:"faults"`
	Events     []Event       `json:"events"`
	Assertions []Assertion   `json:"assertions"`
}

// PoolParams sizes the in-process pool a scenario runs against. The zero
// value means a deterministic single-worker pool (base=max=1) with a 1 ms
// warm-up — the configuration under which occurrence-indexed fault rules
// fire in submission order. Retries back off from a fixed 1 ms base.
type PoolParams struct {
	BaseWorkers int           `json:"base_workers"`
	MaxWorkers  int           `json:"max_workers"`
	Warmup      time.Duration `json:"warmup"`
	QueueLimit  int           `json:"queue_limit"`
	RunTimeout  time.Duration `json:"run_timeout"`
	MaxRetries  int           `json:"max_retries"`
}

func (p PoolParams) config() runqueue.Config {
	base := p.BaseWorkers
	if base <= 0 {
		base = 1
	}
	max := p.MaxWorkers
	if max <= 0 {
		max = base
	}
	warmup := p.Warmup
	if warmup <= 0 {
		warmup = time.Millisecond
	}
	return runqueue.Config{
		BaseWorkers:  base,
		MaxWorkers:   max,
		Warmup:       warmup,
		QueueLimit:   p.QueueLimit,
		RunTimeout:   p.RunTimeout,
		MaxRetries:   p.MaxRetries,
		RetryBackoff: time.Millisecond,
		TraceLimit:   -1, // runs carry their own Observer; no trace endpoint
	}
}

// FleetParams sizes the coordinator + node fleet a fleet scenario runs
// against. Node indexes used by events, node_faults, and the node_states
// assertion follow registration order, which the runner makes deterministic
// by starting agents one at a time.
type FleetParams struct {
	// Nodes is how many node daemons join the coordinator.
	Nodes int `json:"nodes"`
	// Placement is round_robin, least_loaded, or lpt ("" = round_robin).
	Placement string `json:"placement"`
	// Heartbeat, UnhealthyAfter, and DeadAfter time the coordinator's
	// heartbeat-timeout state machine; zeros take the fleet defaults.
	Heartbeat      time.Duration `json:"heartbeat"`
	UnhealthyAfter time.Duration `json:"unhealthy_after"`
	DeadAfter      time.Duration `json:"dead_after"`
	// Durable journals the coordinator's routing table to an on-disk store,
	// which is what makes kill_coordinator / restart_coordinator events
	// meaningful: the restarted coordinator rehydrates and reconciles.
	Durable bool `json:"durable"`
	// DrainIdleAfter and MinNodes configure drain-on-idle; a zero
	// DrainIdleAfter disables it.
	DrainIdleAfter time.Duration `json:"drain_idle_after"`
	MinNodes       int           `json:"min_nodes"`
	// NodeFaults arms extra injection rules on a single node. The
	// scenario's global fault rules are armed on every node independently
	// (each node owns a seeded injector), so a global occurrence-indexed
	// rule fires per node, not once fleet-wide; injected assertions count
	// the sum across the coordinator and all nodes.
	NodeFaults []NodeFault `json:"node_faults"`
}

// NodeFault is one injection rule pinned to one node. An absent node index
// is -1, which Validate rejects as out of range.
type NodeFault struct {
	Node int         `json:"node" default:"-1"`
	Rule faults.Rule `json:"rule"`
}

// Event is one timeline step, written as a single-key mapping: exactly one
// field is set. Bool fields are flags written bare (wait_all:).
type Event struct {
	Submit    *SubmitEvent    `json:"submit"`
	Arrivals  *ArrivalsEvent  `json:"arrivals"`
	SetPolicy *SetPolicyEvent `json:"set_policy"`
	Wait      *WaitEvent      `json:"wait"`
	WaitAll   bool            `json:"wait_all"`
	Cancel    *CancelEvent    `json:"cancel"`
	// KillNode stops a node abruptly (agent and HTTP server die; its runs
	// are requeued once the coordinator declares it dead). CordonNode stops
	// new placements only. DrainNode decommissions: the agent stops and the
	// coordinator requeues the node's runs immediately.
	KillNode   *NodeEvent `json:"kill_node"`
	CordonNode *NodeEvent `json:"cordon_node"`
	DrainNode  *NodeEvent `json:"drain_node"`
	// SubmitSweep submits a named sweep grid. WaitSweep blocks on its
	// progress or terminal state.
	SubmitSweep *SubmitSweepEvent `json:"submit_sweep"`
	WaitSweep   *WaitSweepEvent   `json:"wait_sweep"`
	// WaitNode blocks until a node reaches a state — how elasticity
	// scenarios observe a scale-drain land.
	WaitNode *WaitNodeEvent `json:"wait_node"`
	// KillCoordinator tears the coordinator down abruptly (kill -9
	// semantics: HTTP surface, monitor, and store handle all die; the
	// journal survives on disk). RestartCoordinator reopens the store and
	// brings a fresh coordinator up at the same address, which rehydrates
	// and reconciles with the returning nodes. Durable fleets only.
	KillCoordinator    bool `json:"kill_coordinator"`
	RestartCoordinator bool `json:"restart_coordinator"`
}

// NodeEvent targets one fleet node by registration index (required: an
// absent index is -1, out of range).
type NodeEvent struct {
	Node int `json:"node" default:"-1"`
}

// SubmitSweepEvent submits one named sweep grid: the POST /v1/sweeps body
// (policies × mixes × loads × seeds plus shared options) under a name.
type SubmitSweepEvent struct {
	Name string `json:"name"`
	client.SweepSpec
}

// WaitSweepEvent blocks until the named sweep reaches a terminal state
// ("done", "failed", "canceled") or, with Done set, until at least that many
// members are terminal — the hook that lets a scenario kill the coordinator
// at a known point mid-sweep.
type WaitSweepEvent struct {
	Sweep string `json:"sweep"`
	State string `json:"state"`
	Done  int    `json:"done"`
}

// WaitNodeEvent blocks until the node (by registration index) reports a
// state ("healthy", "cordoned", "unhealthy", "drained").
type WaitNodeEvent struct {
	Node  int    `json:"node" default:"-1"`
	State string `json:"state"`
}

// SubmitEvent submits one named run built from the defaults template plus
// overrides.
type SubmitEvent struct {
	// Name labels the submission for waits, cancels, and assertions.
	Name string `json:"name"`
	// Workload and Options override individual template fields; nil keeps
	// the template.
	Workload *runqueue.WorkloadSpec `json:"workload"`
	Options  *runqueue.RunOptions   `json:"options"`
}

// spec merges the event's overrides onto the template: non-zero override
// fields replace the template's.
func (e *SubmitEvent) spec(template runqueue.Spec) runqueue.Spec {
	overlay(&template.Workload, e.Workload)
	overlay(&template.Options, e.Options)
	return template
}

// overlay copies src's non-zero fields onto dst; a zero field keeps dst's
// value — the convention the facade uses for defaulting, so an explicit zero
// and "unset" coincide.
func overlay[T any](dst, src *T) {
	if src == nil {
		return
	}
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < s.NumField(); i++ {
		if f := s.Field(i); !f.IsZero() {
			d.Field(i).Set(f)
		}
	}
}

// ArrivalsEvent submits a generated phase of runs named "<prefix>0",
// "<prefix>1", ... Their workload seeds derive from the master seed and the
// submission index, so the phase reshuffles coherently under -seed.
type ArrivalsEvent struct {
	Prefix string `json:"prefix"`
	Count  int    `json:"count"`
	// Pattern shapes per-submission load: "burst" and "uniform" submit at
	// the template load; "diurnal" sweeps load sinusoidally between LoadMin
	// and LoadMax over Period submissions (day-and-night arrival pressure).
	Pattern string  `json:"pattern"`
	LoadMin float64 `json:"load_min"`
	LoadMax float64 `json:"load_max"`
	Period  int     `json:"period"`
}

// SetPolicyEvent switches the defaults template's policy mid-run: every
// subsequent submission schedules under the new regime.
type SetPolicyEvent struct {
	Policy string `json:"policy"`
}

// WaitEvent blocks until the named run reaches a state ("done", "failed",
// "canceled", "running", or "terminal" for any final state).
type WaitEvent struct {
	Run   string `json:"run"`
	State string `json:"state"`
}

// CancelEvent cancels the named run.
type CancelEvent struct {
	Run string `json:"run"`
}

// Assertion is one outcome check, written as a single-key mapping: exactly
// one field is set. Bool fields are flags written bare (no_leaks:).
type Assertion struct {
	State         *StateAssertion         `json:"state"`
	States        *StatesAssertion        `json:"states"`
	Admission     *AdmissionAssertion     `json:"admission"`
	ErrorContains *ErrorContainsAssertion `json:"error_contains"`
	Metric        *MetricAssertion        `json:"metric"`
	Outcome       *OutcomeAssertion       `json:"outcome"`
	SameResult    *SameResultAssertion    `json:"same_result"`
	Injected      *InjectedAssertion      `json:"injected"`
	NodeStates    *NodeStatesAssertion    `json:"node_states"`
	SweepState    *SweepStateAssertion    `json:"sweep_state"`
	SweepOracle   *SweepOracleAssertion   `json:"sweep_cells_match_oracle"`
	// ReconciledRuns / AdoptedResults bound the coordinator's recovery
	// counters (pdpad_fleet_reconciled_runs_total /
	// pdpad_fleet_adopted_results_total) — sugar over a metric assertion
	// that names the crash-recovery contract directly.
	ReconciledRuns *Bounds `json:"reconciled_runs"`
	AdoptedResults *Bounds `json:"adopted_results"`
	Invariants     bool    `json:"invariants"`
	NoLeaks        bool    `json:"no_leaks"`
}

// SweepStateAssertion pins a sweep's terminal state.
type SweepStateAssertion struct {
	Sweep string `json:"sweep"`
	Is    string `json:"is"`
}

// SweepOracleAssertion re-runs the named sweep's grid on a fresh standalone
// single-worker daemon and requires the sweep's cells JSON to be
// byte-identical to the oracle's — the determinism contract that faults,
// sharding, and a coordinator crash and recovery must not dent.
type SweepOracleAssertion struct {
	Sweep string `json:"sweep"`
}

// Bounds is an inclusive range on one number; a nil bound is open. Equals
// pins both ends: Validate folds it into Min and Max.
type Bounds struct {
	Min    *float64 `json:"min"`
	Max    *float64 `json:"max"`
	Equals *float64 `json:"equals"`
}

// NodeStatesAssertion pins every fleet node's final state (healthy,
// cordoned, unhealthy, or drained), in node-ID order. Nodes that died and
// re-registered appear once per incarnation.
type NodeStatesAssertion struct {
	Are []string `json:"are"`
}

// StateAssertion pins one run's exact terminal state.
type StateAssertion struct {
	Run string `json:"run"`
	Is  string `json:"is"`
}

// StatesAssertion pins the terminal states of a generated phase, in
// submission order ("are"), or requires one state of every member ("all").
type StatesAssertion struct {
	Prefix string   `json:"prefix"`
	Are    []string `json:"are"`
	All    string   `json:"all"`
}

// AdmissionAssertion pins how a submission was admitted: "fresh",
// "cache_hit", "dedup", or "shed".
type AdmissionAssertion struct {
	Run string `json:"run"`
	Is  string `json:"is"`
}

// ErrorContainsAssertion requires a run's error message to contain a
// substring.
type ErrorContainsAssertion struct {
	Run    string `json:"run"`
	Substr string `json:"substr"`
}

// MetricAssertion bounds one series of the backend's metric registry (the
// same numbers /metrics exposes); a coordinator without the series falls
// back to the sum over its nodes' pools.
type MetricAssertion struct {
	Name  string `json:"name"`
	Label string `json:"label"`
	Bounds
}

// OutcomeAssertion checks fields of a completed run's result.
type OutcomeAssertion struct {
	Run          string   `json:"run"`
	Policy       string   `json:"policy"`
	Workload     string   `json:"workload"`
	Jobs         *int     `json:"jobs"`
	MakespanSMin *float64 `json:"makespan_min_s"`
	MakespanSMax *float64 `json:"makespan_max_s"`
}

// SameResultAssertion requires the named runs' result JSON to be
// byte-identical — the check that proves fault handling has no blast radius
// beyond its target.
type SameResultAssertion struct {
	Runs []string `json:"runs"`
}

// InjectedAssertion pins how many occurrences of a site fired a rule. Site
// is required.
type InjectedAssertion struct {
	Site  *faults.Site `json:"site"`
	Count int          `json:"count"`
}
