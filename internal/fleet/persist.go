package fleet

// The coordinator's persistence schema over internal/store: the node ledger
// and the run registry are journaled as they change — runs, with their
// cdel erasures, by the run ledger (runqueue.Ledger), which also compacts
// and recovers them — and the sweep index (runqueue.SweepIndex) journals
// sweeps beside them as "csweep" records, so a restarted coordinator
// rehydrates its full routing table before serving.
// Nodes come back as pending-reconcile records — excluded from placement
// until their daemons re-register, at which point the reconcile protocol
// (reconcile.go) adopts whatever the nodes finished while the coordinator
// was down. Final run views carry the exact result bytes the serving node
// produced, which is what keeps a sweep resumed across a coordinator
// kill -9 byte-identical to an uninterrupted one.
//
// Store failures must never fail coordination: every append error is
// counted in pdpad_fleet_store_errors_total and the coordinator keeps
// serving from memory, exactly like the pool's persistence layer.

import (
	"encoding/json"
	"time"

	"pdpasim/client"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/store"
)

// Record kinds in the coordinator's store. They share a journal format with
// the pool's kinds but live in a separate store directory, so the prefixes
// only need to be self-consistent. kindCoordSweep records belong to the
// sweep index.
const (
	kindCoordNode  = "cnode"
	kindCoordRun   = "crun"
	kindCoordSweep = "csweep"
	kindCoordDel   = "cdel"
)

// nodeRecord is the durable form of one node-ledger entry. The latest
// record for an ID wins, so state flips (cordon, drain, death) are plain
// re-appends.
type nodeRecord struct {
	ID           string    `json:"id"`
	Name         string    `json:"name,omitempty"`
	Addr         string    `json:"addr"`
	CPUs         int       `json:"cpus,omitempty"`
	BaseWorkers  int       `json:"base_workers,omitempty"`
	MaxWorkers   int       `json:"max_workers,omitempty"`
	RegisteredAt time.Time `json:"registered_at"`
	Cordoned     bool      `json:"cordoned,omitempty"`
	Drained      bool      `json:"drained,omitempty"`
	// ScaleDrained marks a drain decided by drain-on-idle; its
	// heartbeats answer "drained" (the agent leaves the fleet) instead of
	// the 404 that would make it re-register.
	ScaleDrained bool `json:"scale_drained,omitempty"`
}

// crunRecord is the durable form of one coordinated run. NodeAddr, stamped
// with NodeID by every placement, lets recovery synthesize a
// pending-reconcile placeholder when the owning node's own record was lost;
// Final carries the terminal view verbatim, result bytes included.
type crunRecord struct {
	ID        string          `json:"id"`
	Key       string          `json:"key"`
	Spec      runqueue.Spec   `json:"spec"`
	DeadlineS float64         `json:"deadline_s,omitempty"`
	Submitted time.Time       `json:"submitted"`
	NodeID    string          `json:"node_id,omitempty"`
	NodeAddr  string          `json:"node_addr,omitempty"`
	RemoteID  string          `json:"remote_id,omitempty"`
	State     string          `json:"state"`
	CacheHit  bool            `json:"cache_hit,omitempty"`
	Deduped   bool            `json:"deduped,omitempty"`
	Requeues  int             `json:"requeues,omitempty"`
	Final     *client.RunView `json:"final,omitempty"`
}

// newRunLedger returns the coordinator's run ledger: crun records, cdel
// erasures, the node ledger compacted beside the runs.
func newRunLedger(c *Coordinator) *runqueue.Ledger[*crun] {
	return runqueue.NewLedger(runqueue.LedgerConfig[*crun]{
		Kind:        kindCoordRun,
		DelKind:     kindCoordDel,
		Store:       c.store,
		Sweeps:      c.SweepIndex,
		StoreErrors: c.met.storeErrors,
		Record:      func(cr *crun) any { return cr.crunRecord },
		Decode:      decodeRun,
		Event:       (*crun).event,
		Extra:       c.nodeRecordsLocked,
	})
}

// event is the event of the run's current state, stamped at its finish
// once final (at submission before, or for a final view without a finish).
func (cr *crun) event() client.Event {
	ev := client.Event{State: cr.State, At: cr.Submitted}
	if f := cr.Final; f != nil {
		ev.Message = f.Error
		if f.FinishedAt != nil {
			ev.At = *f.FinishedAt
		}
	}
	return ev
}

// decodeRun rebuilds a coordinated run from its journal record; its
// placement is its NodeID, which rehydrate resolves once the nodes are back.
// A run is terminal only with its final view: a terminal state without one
// (an older coordinator's journal) reads running until the run settles.
func decodeRun(payload []byte) (id, key string, cr *crun, err error) {
	cr = &crun{}
	if err := json.Unmarshal(payload, &cr.crunRecord); err != nil {
		return "", "", nil, err
	}
	switch {
	case cr.Final != nil:
		cr.State = cr.Final.State
	case client.Terminal(cr.State):
		cr.State = "running"
	}
	return cr.ID, cr.Key, cr, nil
}

// fleetRecovery is recoverFleet's result: the last surviving record per
// node ID in first-seen order, and the counts of recovered runs and sweeps
// and of records that had to be dropped.
type fleetRecovery struct {
	nodes                 []nodeRecord
	runs, sweeps, dropped int
}

// recoverFleet folds a recovered record stream as NewCoordinator does: the
// sweep index takes the csweep records, the run ledger the crun and cdel
// records, and the node ledger the cnode records; later records for an ID
// supersede earlier ones, and anything undecodable or unrecognized is
// dropped and counted, never fatal. It touches nothing but the index and
// the ledger — the fuzz target drives it with arbitrary journal wreckage.
func recoverFleet(sweeps *runqueue.SweepIndex, runs *runqueue.Ledger[*crun], recs []store.Record) fleetRecovery {
	var out fleetRecovery
	recs, out.sweeps, out.dropped = runqueue.RecoverSweeps(sweeps, recs)
	var dropped int
	recs, out.runs, dropped, _ = runs.Recover(recs)
	out.dropped += dropped
	at := map[string]int{} // node ID → index in out.nodes
	for _, rec := range recs {
		var nr nodeRecord
		if rec.Kind != kindCoordNode || json.Unmarshal(rec.Payload, &nr) != nil || nr.ID == "" {
			out.dropped++
		} else if i, seen := at[nr.ID]; seen {
			out.nodes[i] = nr
		} else {
			at[nr.ID] = len(out.nodes)
			out.nodes = append(out.nodes, nr)
		}
	}
	return out
}

func (c *Coordinator) persistNodeLocked(n *node) {
	c.runs.Append(kindCoordNode, n.nodeRecord)
}

// nodeRecordsLocked serializes the node ledger for compaction, which the
// run ledger triggers from run garbage alone: every node still in the
// fleet or still owed pending runs. Drained tombstones with nothing pending
// are dropped here — that is how old incarnations expire from disk.
func (c *Coordinator) nodeRecordsLocked() []store.Record {
	pending := c.pendingLocked()
	var out []store.Record
	for _, n := range c.order {
		if n.Drained && len(pending[n.ID]) == 0 {
			continue
		}
		if payload, err := json.Marshal(n.nodeRecord); err == nil {
			out = append(out, store.Record{Kind: kindCoordNode, Payload: payload})
		}
	}
	return out
}

// rehydrate rebuilds the routing table from recovered records once the run
// ledger has its runs back. It runs inside NewCoordinator before the
// monitor starts and before any request is served, so no locking is
// needed. Recovered non-drained nodes come back pending-reconcile:
// unplaceable and unwatched until their daemon re-registers (or
// liveness declares them dead — their heartbeat clock restarts at recovery
// time, so a node that never returns is requeued after DeadAfter,
// respecting the requeue budget).
func (c *Coordinator) rehydrate(rec fleetRecovery) {
	now := time.Now()
	addNode := func(n *node) {
		c.nodes[n.ID] = n
		c.order = append(c.order, n)
		if seq, ok := runqueue.SeqOf(n.ID, "node-"); ok && int(seq) > c.nodeSeq {
			c.nodeSeq = int(seq)
		}
	}
	for _, nr := range rec.nodes {
		if c.nodes[nr.ID] != nil {
			continue
		}
		addNode(&node{
			nodeRecord:       nr,
			cli:              client.New(nr.Addr, client.WithHTTPClient(c.hc)),
			lastBeat:         now,
			pendingReconcile: !nr.Drained,
		})
		c.met.recoveredNodes.Inc()
	}
	// A pending run's NodeID is its placement; a missing node record
	// becomes a pending-reconcile placeholder so the daemon at that address
	// can still return and be reconciled.
	var orphans []*crun
	c.runs.Each(false, func(cr *crun) {
		if cr.Final != nil || c.nodes[cr.NodeID] != nil {
			return
		}
		if cr.NodeID == "" || cr.NodeAddr == "" {
			// No node and no address to wait for: the placement is
			// unrecoverable, so fail deterministically rather than hang.
			orphans = append(orphans, cr)
			return
		}
		addNode(&node{
			nodeRecord:       nodeRecord{ID: cr.NodeID, Addr: cr.NodeAddr, RegisteredAt: now},
			cli:              client.New(cr.NodeAddr, client.WithHTTPClient(c.hc)),
			lastBeat:         now,
			pendingReconcile: true,
		})
	})
	for _, cr := range orphans {
		c.failLocked(cr, "recovered without a reachable placement")
	}
	if rec.dropped > 0 {
		c.met.storeErrors.Add(uint64(rec.dropped))
		c.logf("fleet: dropped %d undecodable store records during recovery", rec.dropped)
	}
}
