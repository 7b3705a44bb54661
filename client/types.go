package client

// The v1 wire schema. These types are the one definition of every v1 JSON
// body: the daemon's HTTP surface (internal/server), the fleet coordinator,
// and the runqueue pool all build their requests and responses from them,
// and the pool's spec types are these types with simulator methods added.
// The package still imports nothing from the daemon internals, so it stays
// importable outside this module.

import (
	"encoding/json"
	"time"
)

// Workload is what workload to generate. Zero fields take the simulator's
// defaults (load 1.0, 60 CPUs, 300 s window).
type Workload struct {
	// Mix is "w1", "w2", "w3", or "w4" (Table 1 of the paper).
	Mix string `json:"mix"`
	// Load is the estimated processor demand fraction; 0 means 1.0.
	Load float64 `json:"load,omitempty"`
	// NCPU is the machine size; 0 means 60.
	NCPU int `json:"ncpu,omitempty"`
	// WindowS is the submission window in seconds; 0 means 300.
	WindowS float64 `json:"window_s,omitempty"`
	// Seed drives the arrival process.
	Seed int64 `json:"seed,omitempty"`
	// UniformRequest forces every job's processor request (the paper's
	// "not tuned" experiments use 30); 0 keeps tuned requests.
	UniformRequest int `json:"uniform_request,omitempty"`
}

// RunOptions is how to schedule the workload. PDPA parameters left zero
// take the paper's defaults.
type RunOptions struct {
	// Policy is the scheduling regime: irix, gang, equip, equal_eff,
	// dynamic, pdpa, or pdpa_adaptive.
	Policy string `json:"policy"`
	// TargetEff, HighEff, Step, BaseMPL, and MaxStableTransitions override
	// individual PDPA parameters; zero fields keep the paper's values.
	TargetEff            float64 `json:"target_eff,omitempty"`
	HighEff              float64 `json:"high_eff,omitempty"`
	Step                 int     `json:"step,omitempty"`
	BaseMPL              int     `json:"base_mpl,omitempty"`
	MaxStableTransitions int     `json:"max_stable_transitions,omitempty"`
	// FixedMPL is the fixed multiprogramming level for the non-PDPA
	// regimes; 0 means 4.
	FixedMPL int `json:"fixed_mpl,omitempty"`
	// NoiseSigma is the SelfAnalyzer measurement noise; 0 means the default
	// 1%, negative disables noise.
	NoiseSigma float64 `json:"noise_sigma,omitempty"`
	// Seed drives measurement noise.
	Seed int64 `json:"seed,omitempty"`
	// NUMANodeSize groups CPUs into NUMA nodes; 0 or 1 keeps a flat SMP.
	NUMANodeSize int `json:"numa_node_size,omitempty"`
}

// Spec is a workload plus its scheduling options — one unit of work.
type Spec struct {
	Workload Workload   `json:"workload"`
	Options  RunOptions `json:"options"`
}

// SubmitRunRequest is the POST /v1/runs payload.
type SubmitRunRequest struct {
	Workload Workload   `json:"workload"`
	Options  RunOptions `json:"options"`
	// DeadlineS bounds the run's total latency in seconds, queue wait
	// included; 0 uses the daemon's default.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// SubmitResult reports how a run submission was resolved.
type SubmitResult struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// CacheHit: an identical spec had already completed; the result is
	// immediately available.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Deduped: an identical spec was already queued or running; this
	// submission joined it.
	Deduped bool `json:"deduped,omitempty"`
}

// RunView is a run's status, with the full result JSON once done.
type RunView struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	WallSeconds float64    `json:"wall_seconds,omitempty"`
	CacheKey    string     `json:"cache_key"`
	Spec        Spec       `json:"spec"`
	// Result is the Outcome JSON, present once State is "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the view's state is final.
func (v *RunView) Terminal() bool { return Terminal(v.State) }

// Terminal reports whether a run state string is final.
func Terminal(state string) bool {
	switch state {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// RunPage is one page of GET /v1/runs, newest first. A non-empty
// NextCursor fetches the next page; its absence marks the last page.
type RunPage struct {
	Runs       []RunView `json:"runs"`
	NextCursor string    `json:"next_cursor,omitempty"`
}

// ReconcileRequest is the POST /v1/runs/reconcile payload: the run IDs a
// restarted coordinator believes the target node owns.
type ReconcileRequest struct {
	IDs []string `json:"ids"`
}

// ReconcileResult answers a reconcile probe: full views (results included)
// for the runs the node has a record of, and the IDs it knows nothing
// about.
type ReconcileResult struct {
	Runs    []RunView `json:"runs,omitempty"`
	Missing []string  `json:"missing,omitempty"`
}

// Event is one server-sent lifecycle event from GET /v1/runs/{id}/events.
type Event struct {
	RunID   string    `json:"run_id"`
	State   string    `json:"state"`
	At      time.Time `json:"at"`
	Message string    `json:"message,omitempty"`
}

// SweepSpec is a sweep grid: policies × mixes × loads × seeds, sharing
// workload parameters and scheduling options. Each member run uses its seed
// for both the workload and the measurement noise.
type SweepSpec struct {
	// Policies and Mixes span the grid (required, at least one each).
	Policies []string `json:"policies"`
	Mixes    []string `json:"mixes"`
	// Loads are the demand levels; empty means {1.0}.
	Loads []float64 `json:"loads,omitempty"`
	// Seeds are the replicate seeds aggregated per cell; empty means {0}.
	Seeds []int64 `json:"seeds,omitempty"`
	// NCPU, WindowS, and UniformRequest parameterize workload generation
	// exactly as Workload does.
	NCPU           int     `json:"ncpu,omitempty"`
	WindowS        float64 `json:"window_s,omitempty"`
	UniformRequest int     `json:"uniform_request,omitempty"`
	// Options carries the scheduling knobs shared by every member; its
	// Policy and Seed fields are ignored (the grid supplies them).
	Options RunOptions `json:"options,omitempty"`
}

// SubmitSweepRequest is the POST /v1/sweeps payload.
type SubmitSweepRequest struct {
	SweepSpec
	// DeadlineS bounds each member run's total latency in seconds; 0 uses
	// the daemon's default.
	DeadlineS float64 `json:"deadline_s,omitempty"`
}

// SweepSubmitResult reports how a sweep submission was resolved.
type SweepSubmitResult struct {
	ID string `json:"id"`
	// RunIDs are the member run IDs in grid order (mixes → loads →
	// policies, each cell's seeds contiguous).
	RunIDs    []string `json:"run_ids"`
	CacheHits int      `json:"cache_hits,omitempty"`
	Deduped   int      `json:"deduped,omitempty"`
}

// SweepView is a sweep's status; Cells carries the per-cell aggregate JSON
// once every member is done. It is kept raw so the client stays agnostic
// to the cell schema — and so two sweeps' cells can be compared byte for
// byte, which is the fleet's determinism contract.
type SweepView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Done        int             `json:"done"`
	Total       int             `json:"total"`
	SubmittedAt time.Time       `json:"submitted_at"`
	Spec        SweepSpec       `json:"spec"`
	RunIDs      []string        `json:"run_ids,omitempty"`
	Errors      []string        `json:"errors,omitempty"`
	Cells       json.RawMessage `json:"cells,omitempty"`
}

// SweepPage is one page of GET /v1/sweeps, newest first.
type SweepPage struct {
	Sweeps     []SweepView `json:"sweeps"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// VersionInfo is the GET /v1/version payload.
type VersionInfo struct {
	Service   string `json:"service"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// APIRevision is the wire-surface revision; a coordinator refuses
	// nodes whose revision differs from its own.
	APIRevision int `json:"api_revision"`
	// Role is standalone, coordinator, or node.
	Role string `json:"role"`
}

// Health is the GET /healthz payload. The coordinator role adds the node
// counts; the standalone and node roles leave them nil. Fields are declared
// in key order, which is the order the body has always been rendered in.
type Health struct {
	// Healthy counts the nodes whose state is healthy. A node whose own
	// pool is draining still counts, but gets no placements.
	Healthy *int `json:"healthy,omitempty"`
	// Inflight and Queue are the runs executing and waiting (fleet-wide on
	// a coordinator, from the nodes' last heartbeats).
	Inflight int `json:"inflight"`
	// Nodes counts the registered nodes not yet drained.
	Nodes *int `json:"nodes,omitempty"`
	Queue int  `json:"queue"`
	// Status is "ok", or "draining" once shutdown has begun.
	Status  string  `json:"status"`
	UptimeS float64 `json:"uptime_s"`
}

// NodeView is one fleet node as the coordinator reports it on GET
// /v1/nodes.
type NodeView struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Addr is the node's advertised base URL.
	Addr string `json:"addr"`
	// State is healthy, cordoned, unhealthy, or drained.
	State string `json:"state"`
	// Cordoned is the manual placement stop, reported separately because
	// it persists underneath the liveness states.
	Cordoned     bool      `json:"cordoned,omitempty"`
	CPUs         int       `json:"cpus,omitempty"`
	BaseWorkers  int       `json:"base_workers,omitempty"`
	MaxWorkers   int       `json:"max_workers,omitempty"`
	RegisteredAt time.Time `json:"registered_at"`
	// LastHeartbeatAt and Heartbeats describe the heartbeat stream;
	// QueueDepth, Inflight, and Draining are the node's last snapshot.
	LastHeartbeatAt time.Time `json:"last_heartbeat_at"`
	Heartbeats      uint64    `json:"heartbeats"`
	QueueDepth      int       `json:"queue_depth"`
	Inflight        int       `json:"inflight"`
	Draining        bool      `json:"draining,omitempty"`
	// Assigned counts the coordinator-tracked runs currently placed on
	// this node and not yet terminal there, whether read or not.
	Assigned int `json:"assigned"`
}

// NodePage is one page of GET /v1/nodes, newest first by node ID.
type NodePage struct {
	Nodes      []NodeView `json:"nodes"`
	NextCursor string     `json:"next_cursor,omitempty"`
}

// NodeRegisterRequest is the fleet's POST /v1/nodes/register payload: a
// node announces its address, wire revision, and capacity.
type NodeRegisterRequest struct {
	// Name is an optional human label; the coordinator assigns the ID.
	Name string `json:"name,omitempty"`
	// Addr is the node's advertised base URL (how the coordinator reaches
	// its v1 surface).
	Addr string `json:"addr"`
	// APIRevision is the wire revision the node speaks; a mismatch with the
	// coordinator's is refused with code incompatible_revision.
	APIRevision int `json:"api_revision"`
	// CPUs, BaseWorkers, and MaxWorkers describe capacity: the machine size
	// its simulations model and the pool's MPL bounds.
	CPUs        int `json:"cpus,omitempty"`
	BaseWorkers int `json:"base_workers,omitempty"`
	MaxWorkers  int `json:"max_workers,omitempty"`
}

// NodeRegisterResponse acknowledges a registration: the coordinator-assigned
// node ID (used in the heartbeat path and the node-plane endpoints) and the
// directed heartbeat cadence.
type NodeRegisterResponse struct {
	ID                 string  `json:"id"`
	HeartbeatIntervalS float64 `json:"heartbeat_interval_s"`
}

// NodeHeartbeatRequest is the periodic node → coordinator liveness report:
// the node's current queue-depth/MPL snapshot.
type NodeHeartbeatRequest struct {
	QueueDepth int  `json:"queue_depth"`
	Inflight   int  `json:"inflight"`
	Draining   bool `json:"draining,omitempty"`
}

// NodeHeartbeatResponse tells the node how the coordinator currently sees
// it. A "drained" answer is an instruction to leave the fleet.
type NodeHeartbeatResponse struct {
	State string `json:"state"`
}

// ErrorBody is the v1 error envelope's payload. Code is a stable
// machine-readable discriminator; Message is free-form.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds suggests a pause before retrying; 0 (omitted) means
	// the error is not retryable-after-a-wait. It mirrors the Retry-After
	// header on the same response.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// ErrorResponse is the wire form of every non-2xx v1 JSON response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}
