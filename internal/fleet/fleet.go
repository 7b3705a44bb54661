// Package fleet lifts pdpad from one process to a cluster: a coordinator
// owns admission and routing while N node daemons each run today's
// PDPA-governed runqueue.Pool unchanged. The division of labor follows the
// paper's two-level structure — per-job processor allocation stays local to
// each node (its pool's PDPA-MPL admission keeps governing what actually
// runs), and the coordinator only balances load across nodes, the way
// PDPA's upper level only decides how many things may run at once.
//
// The Coordinator is a server.Backend plus the node plane. internal/server
// serves its v1 run and sweep surface — the same code path, envelope, and
// pagination a standalone daemon's pool is served with, so existing clients
// work unchanged — while the coordinator answers those calls from its
// routing table: affinity dedup, placement with failover, requeue, and
// sweep reassembly. A watcher on each placement's node event stream settles
// the run the moment its node reports it terminal, so every read is local.
// Beside it, behind the same front door, sits the node plane: nodes
// register over HTTP (POST /v1/nodes/register), then send periodic
// heartbeats carrying capacity and queue-depth/MPL snapshots; a node whose
// heartbeats stop is marked unhealthy (no new placements) and then drained
// (its placed runs requeue onto surviving nodes, or fail deterministically
// when no healthy node remains); operators list and steer nodes with GET
// /v1/nodes and POST /v1/nodes/{id}/cordon|uncordon|drain. Every body is a
// client wire type.
//
// Run bookkeeping — run IDs, the affinity (spec-key) index, the bounded
// registry of finished runs, the crun/cdel journal and its recovery — lives
// in a runqueue.Ledger, the same one a pool keeps its runs in; the
// coordinator adds placement, watchers, requeue and reconcile. A run's
// placement is its NodeID, and a node's load is derived from the ledger,
// never booked beside it: the runs not yet terminal whose NodeID names the
// node. That one count drives least_loaded and lpt placement, the node
// list's assigned field, the idle-drain check, and the runs a dead or
// drained node hands back. Likewise a node's state is decided in one place
// (liveness, pending reconcile, cordon, drain), and /healthz, the node
// gauges, the node list and placement all read it.
//
// Sweeps live in runqueue.SweepIndex, the same index a pool serves its
// sweeps from: the coordinator supplies only the fleet-specific steps —
// sharding a grid's members across healthy nodes as one atomic batch,
// reporting member states, and cancelling a member on its node. Cells
// aggregate in grid order by index exactly as on a single node, so a fleet
// sweep's cells are byte-identical to the same sweep on one daemon —
// including after a node dies mid-sweep and survivors absorb its members.
//
// Every pdpad role is assembled in one place, StartDaemon (daemon.go): store
// → pool → server → agent for a standalone daemon or a node, store →
// coordinator → server for a coordinator. pdpad, the scenario runner and the
// fleet tests all build their stacks through it, and Daemon.Kill and
// Daemon.Restart are the one kill -9 stand-in.
package fleet

import "time"

// NodeState is a node's lifecycle state as the coordinator reports it.
type NodeState string

// Node states, from the coordinator's point of view.
const (
	// StateHealthy: heartbeats current, placements allowed unless the
	// node's own pool is draining.
	StateHealthy NodeState = "healthy"
	// StateCordoned: placements stopped by hand; running and queued work
	// on the node proceeds, heartbeats keep flowing.
	StateCordoned NodeState = "cordoned"
	// StateUnhealthy: heartbeats missed past UnhealthyAfter, or runs
	// awaiting reconcile after a coordinator restart; no new placements,
	// existing work left alone pending recovery or death.
	StateUnhealthy NodeState = "unhealthy"
	// StateDrained: the node is out of the fleet — heartbeats missed past
	// DeadAfter (its runs were requeued), or a manual drain evicted its
	// placed work.
	StateDrained NodeState = "drained"
)

// HealthConfig is the heartbeat-timeout state machine's timing. The zero
// value takes the defaults noted per field.
type HealthConfig struct {
	// HeartbeatInterval is the cadence the coordinator directs nodes to
	// send heartbeats at (default 2s).
	HeartbeatInterval time.Duration
	// UnhealthyAfter is the heartbeat silence after which a node stops
	// receiving placements (default 3× HeartbeatInterval).
	UnhealthyAfter time.Duration
	// DeadAfter is the silence after which the node is drained and its
	// placed runs are requeued (default 2× UnhealthyAfter).
	DeadAfter time.Duration
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.HeartbeatInterval <= 0 {
		h.HeartbeatInterval = 2 * time.Second
	}
	if h.UnhealthyAfter <= 0 {
		h.UnhealthyAfter = 3 * h.HeartbeatInterval
	}
	if h.DeadAfter <= 0 {
		h.DeadAfter = 2 * h.UnhealthyAfter
	}
	if h.UnhealthyAfter < h.HeartbeatInterval {
		h.UnhealthyAfter = h.HeartbeatInterval
	}
	if h.DeadAfter < h.UnhealthyAfter {
		h.DeadAfter = h.UnhealthyAfter
	}
	return h
}

// Liveness is the heartbeat-timeout state machine: a pure function of how
// long a node has been silent, so its transitions are exactly testable.
func (h HealthConfig) Liveness(silence time.Duration) NodeState {
	switch {
	case silence >= h.DeadAfter:
		return StateDrained
	case silence >= h.UnhealthyAfter:
		return StateUnhealthy
	default:
		return StateHealthy
	}
}

// CombineState folds the liveness verdict with the manual flags into the
// state GET /v1/nodes reports. Drained (by death or by hand) dominates;
// a silent node reports unhealthy even while cordoned, because liveness is
// the more urgent fact; cordon otherwise masks healthy.
func CombineState(live NodeState, cordoned, drained bool) NodeState {
	switch {
	case drained || live == StateDrained:
		return StateDrained
	case live == StateUnhealthy:
		return StateUnhealthy
	case cordoned:
		return StateCordoned
	default:
		return StateHealthy
	}
}
