package fleet

// The coordinator's persistence schema over internal/store: the node ledger
// and run registry are journaled as they change, and the sweep index
// (runqueue.SweepIndex) journals sweeps beside them as "csweep" records, so
// a restarted coordinator rehydrates its full routing table before serving.
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
	"fmt"
	"slices"
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

// storeCompactBytes bounds journal growth between compactions.
const storeCompactBytes = 4 << 20

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
	ScaleDrained bool      `json:"scale_drained,omitempty"`
}

// crunRecord is the durable form of one coordinated run. NodeAddr lets
// recovery synthesize a pending-reconcile placeholder when the owning
// node's own record was lost; Final carries the terminal view verbatim,
// result bytes included.
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

// delRecord marks a run ID as erased (sweep-unwind removal or eviction from
// the bounded registry), so recovery does not resurrect it from earlier
// journal entries.
type delRecord struct {
	ID string `json:"id"`
}

// fleetRecovery is recoverState's result: the last surviving record per ID
// in first-seen order, plus how many records had to be dropped.
type fleetRecovery struct {
	nodes   []nodeRecord
	runs    []crunRecord
	dropped int
}

// recoverFleet folds a recovered record stream as NewCoordinator does: the
// sweep index takes the csweep records, recoverState the rest. Undecodable
// records of either kind count in dropped; the second result is how many
// sweeps were recovered.
func recoverFleet(sweeps *runqueue.SweepIndex, recs []store.Record) (fleetRecovery, int) {
	rest, recovered, dropped := runqueue.RecoverSweeps(sweeps, recs)
	rec := recoverState(rest)
	rec.dropped += dropped
	return rec, recovered
}

// recoverState folds a recovered record stream into the coordinator's
// durable state: later records for an ID supersede earlier ones, cdel
// erases a run, and anything undecodable or unrecognized is dropped and
// counted, never fatal. It is a pure function of the record slice — the
// fuzz target drives it with arbitrary journal wreckage.
func recoverState(recs []store.Record) fleetRecovery {
	var out fleetRecovery
	nodes := map[string]*nodeRecord{}
	runs := map[string]*crunRecord{}
	var nodeOrder, runOrder []string
	for _, rec := range recs {
		switch rec.Kind {
		case kindCoordNode:
			var nr nodeRecord
			if err := json.Unmarshal(rec.Payload, &nr); err != nil || nr.ID == "" {
				out.dropped++
				continue
			}
			if _, seen := nodes[nr.ID]; !seen {
				nodeOrder = append(nodeOrder, nr.ID)
			}
			nodes[nr.ID] = &nr
		case kindCoordRun:
			var rr crunRecord
			if err := json.Unmarshal(rec.Payload, &rr); err != nil || rr.ID == "" {
				out.dropped++
				continue
			}
			if _, seen := runs[rr.ID]; !seen {
				runOrder = append(runOrder, rr.ID)
			}
			runs[rr.ID] = &rr
		case kindCoordDel:
			var dr delRecord
			if err := json.Unmarshal(rec.Payload, &dr); err != nil || dr.ID == "" {
				out.dropped++
				continue
			}
			delete(runs, dr.ID)
		default:
			out.dropped++
		}
	}
	for _, id := range nodeOrder {
		out.nodes = append(out.nodes, *nodes[id])
	}
	seen := map[string]bool{} // an erased-then-recreated ID appears twice in runOrder
	for _, id := range runOrder {
		if rr, ok := runs[id]; ok && !seen[id] {
			seen[id] = true
			out.runs = append(out.runs, *rr)
		}
	}
	return out
}

// nodeRecordLocked snapshots a node for the journal.
func nodeRecordLocked(n *node) nodeRecord {
	return nodeRecord{
		ID:           n.id,
		Name:         n.name,
		Addr:         n.addr,
		CPUs:         n.cpus,
		BaseWorkers:  n.baseWorkers,
		MaxWorkers:   n.maxWorkers,
		RegisteredAt: n.registeredAt,
		Cordoned:     n.cordoned,
		Drained:      n.drained,
		ScaleDrained: n.scaleDrained,
	}
}

// runRecordLocked snapshots a run for the journal.
func (c *Coordinator) runRecordLocked(cr *crun) crunRecord {
	rec := crunRecord{
		ID:        cr.id,
		Key:       cr.key,
		Spec:      cr.spec,
		DeadlineS: cr.deadlineS,
		Submitted: cr.submitted,
		NodeID:    cr.nodeID,
		RemoteID:  cr.remoteID,
		State:     cr.state,
		CacheHit:  cr.cacheHit,
		Deduped:   cr.deduped,
		Requeues:  cr.requeues,
		Final:     cr.final,
	}
	if n := c.nodes[cr.nodeID]; n != nil {
		rec.NodeAddr = n.addr
	}
	return rec
}

// appendLocked journals one record; failures are counted, never fatal.
func (c *Coordinator) appendLocked(kind string, v any) {
	if c.store == nil {
		return
	}
	payload, err := json.Marshal(v)
	if err != nil {
		c.met.storeErrors.Inc()
		return
	}
	if err := c.store.Append(store.Record{Kind: kind, Payload: payload}); err != nil {
		c.met.storeErrors.Inc()
	}
}

func (c *Coordinator) persistNodeLocked(n *node) {
	c.appendLocked(kindCoordNode, nodeRecordLocked(n))
}

func (c *Coordinator) persistRunLocked(cr *crun) {
	if c.store == nil {
		return
	}
	c.appendLocked(kindCoordRun, c.runRecordLocked(cr))
	c.maybeCompactLocked()
}

func (c *Coordinator) persistDeleteLocked(id string) {
	c.appendLocked(kindCoordDel, delRecord{ID: id})
}

// maybeCompactLocked rewrites the store from the live record set once the
// journal exceeds the configured bound — the same trigger discipline as the
// pool's store.
func (c *Coordinator) maybeCompactLocked() {
	if c.store.JournalBytes() < storeCompactBytes {
		return
	}
	if err := runqueue.CompactStore(c.SweepIndex, c.liveRecordsLocked()); err != nil {
		c.met.storeErrors.Inc()
	}
}

// liveRecordsLocked serializes the coordinator's durable state: every node
// still in the fleet (or still owed pending runs) and every run in
// submission order; the sweep index adds its own records in Compact.
// Drained tombstones with nothing pending are
// dropped here — that is how old incarnations expire from disk.
func (c *Coordinator) liveRecordsLocked() []store.Record {
	pendingOn := map[string]bool{}
	for _, cr := range c.runOrder {
		if cr.final == nil {
			pendingOn[cr.nodeID] = true
		}
	}
	var out []store.Record
	for _, n := range c.order {
		if n.drained && !pendingOn[n.id] {
			continue
		}
		if payload, err := json.Marshal(nodeRecordLocked(n)); err == nil {
			out = append(out, store.Record{Kind: kindCoordNode, Payload: payload})
		}
	}
	for _, cr := range c.runOrder {
		if payload, err := json.Marshal(c.runRecordLocked(cr)); err == nil {
			out = append(out, store.Record{Kind: kindCoordRun, Payload: payload})
		}
	}
	return out
}

// rehydrate rebuilds the routing table from recovered records. It runs
// inside NewCoordinator before the monitor starts and before any request is
// served, so no locking is needed. Recovered non-drained nodes come back
// pending-reconcile: unplaceable and unrefreshable until their daemon
// re-registers (or liveness declares them dead — their heartbeat clock
// restarts at recovery time, so a node that never returns is requeued after
// DeadAfter, respecting the requeue budget).
func (c *Coordinator) rehydrate(rec fleetRecovery) {
	now := time.Now()
	var orphans []*crun
	for _, nr := range rec.nodes {
		if c.nodes[nr.ID] != nil {
			continue
		}
		n := &node{
			id:           nr.ID,
			name:         nr.Name,
			addr:         nr.Addr,
			cli:          client.New(nr.Addr, client.WithHTTPClient(c.hc)),
			cpus:         nr.CPUs,
			baseWorkers:  nr.BaseWorkers,
			maxWorkers:   nr.MaxWorkers,
			registeredAt: nr.RegisteredAt,
			lastBeat:     now,
			cordoned:     nr.Cordoned,
			drained:      nr.Drained,
			scaleDrained: nr.ScaleDrained,
		}
		n.pendingReconcile = !n.drained
		c.nodes[n.id] = n
		c.order = append(c.order, n)
		if seq, ok := seqOfID(n.id, "node-"); ok && seq > c.nodeSeq {
			c.nodeSeq = seq
		}
		c.met.recoveredNodes.Inc()
	}
	for i := range rec.runs {
		rr := &rec.runs[i]
		if c.runs[rr.ID] != nil {
			continue
		}
		cr := &crun{
			id:        rr.ID,
			key:       rr.Key,
			spec:      rr.Spec,
			deadlineS: rr.DeadlineS,
			submitted: rr.Submitted,
			nodeID:    rr.NodeID,
			remoteID:  rr.RemoteID,
			state:     rr.State,
			cacheHit:  rr.CacheHit,
			deduped:   rr.Deduped,
			requeues:  rr.Requeues,
		}
		if rr.Final != nil {
			f := *rr.Final
			cr.final = &f
			cr.lastView = &f
			cr.state = f.State
		}
		c.runs[cr.id] = cr
		c.runOrder = append(c.runOrder, cr)
		c.affinity[cr.key] = cr // records replay in submission order: last wins
		if seq, ok := seqOfID(cr.id, "run-"); ok && seq > c.runSeq {
			c.runSeq = seq
		}
		c.met.recoveredRuns.Inc()
		if cr.final != nil {
			c.finished = append(c.finished, cr)
			continue
		}
		// A pending run re-attaches to its node with full reservation
		// accounting; a missing node record becomes a pending-reconcile
		// placeholder so the daemon at that address can still return and be
		// reconciled.
		n := c.nodes[cr.nodeID]
		if n == nil && cr.nodeID != "" && rr.NodeAddr != "" {
			n = &node{
				id:               cr.nodeID,
				addr:             rr.NodeAddr,
				cli:              client.New(rr.NodeAddr, client.WithHTTPClient(c.hc)),
				registeredAt:     now,
				lastBeat:         now,
				pendingReconcile: true,
			}
			c.nodes[n.id] = n
			c.order = append(c.order, n)
			if seq, ok := seqOfID(n.id, "node-"); ok && seq > c.nodeSeq {
				c.nodeSeq = seq
			}
		}
		if n != nil {
			n.assigned++
			n.costSum += estCost(cr.spec)
			cr.reserved = true
		} else {
			// No node and no address to wait for: the placement is
			// unrecoverable, so fail deterministically rather than hang.
			orphans = append(orphans, cr)
		}
	}
	// The recovered registry obeys the same bound, in the same order, as a
	// live one: terminal runs rejoin finished in finish order (cache-hit
	// renewals are not journaled), then the orphans fail after them.
	at := func(cr *crun) time.Time {
		if f := cr.final.FinishedAt; f != nil {
			return *f
		}
		return cr.submitted // a record written without a finish time
	}
	slices.SortStableFunc(c.finished, func(a, b *crun) int { return at(a).Compare(at(b)) })
	for _, cr := range orphans {
		c.failLocked(cr, "recovered without a reachable placement")
	}
	c.evictLocked()
	if rec.dropped > 0 {
		c.met.storeErrors.Add(uint64(rec.dropped))
		c.logf("fleet: dropped %d undecodable store records during recovery", rec.dropped)
	}
}

// seqOfID parses the numeric suffix of a "node-%03d" / "run-%06d" ID so
// recovered sequences continue instead of colliding.
func seqOfID(id, prefix string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, prefix+"%d", &n); err != nil {
		return 0, false
	}
	return n, true
}
