package fleet

// The reconcile protocol: when a node re-registers after a coordinator
// restart, the coordinator asks it (POST /v1/runs/reconcile) for the
// authoritative state of every run the recovered routing table attributes
// to that address. The node is the source of truth — it kept simulating
// while the coordinator was down — so terminal results are adopted with
// their exact bytes, live runs are resumed in place, and runs the node has
// no record of are requeued (onto any healthy node, the returning one
// included, and still respecting the requeue budget).

import (
	"time"

	"pdpasim/client"
)

// reconcileVerdict classifies one reconcile answer for a single run.
type reconcileVerdict int

const (
	// verdictRequeue: the node has no record of the run — place it again.
	verdictRequeue reconcileVerdict = iota
	// verdictAdopt: the node holds a terminal view — take it verbatim.
	verdictAdopt
	// verdictResume: the node is still working on the run — follow along.
	verdictResume
)

func (v reconcileVerdict) String() string {
	switch v {
	case verdictAdopt:
		return "adopt"
	case verdictResume:
		return "resume"
	default:
		return "requeue"
	}
}

// reconcileVerdictFor is the reconcile state machine's single decision
// point, pure so the table tests can enumerate it: view is the node's
// answer for one run, nil when the node reported it missing (or did not
// mention it at all, which recovery treats the same way).
func reconcileVerdictFor(view *client.RunView) reconcileVerdict {
	switch {
	case view == nil:
		return verdictRequeue
	case view.Terminal():
		return verdictAdopt
	default:
		return verdictResume
	}
}

// reconcile settles the fate of every run attributed to a returning node.
// runs were already transferred to n under the register handler's lock,
// and n stays pending-reconcile (unhealthy, unplaceable) until the verdicts
// commit here. The HTTP probe happens outside the lock and each commit
// re-checks the run's generation, so placements that moved meanwhile are
// left alone. Resumed runs get a watcher, as a dispatch does. The node's
// heartbeat clock restarts when it answers, since its agent cannot beat
// while it waits on registration. A probe failure leaves the runs attached
// to their watchers, or for the monitor's liveness machinery to requeue.
func (c *Coordinator) reconcile(n *node, runs []*crun) {
	if len(runs) == 0 {
		return
	}
	var ids []string
	byRemote := map[string]*crun{}
	gens := map[string]int{}
	var unplaced []*crun
	c.mu.Lock()
	for _, cr := range runs {
		c.met.reconciled.Inc()
		if cr.RemoteID == "" {
			if cr.Final == nil {
				unplaced = append(unplaced, cr)
			}
			continue
		}
		ids = append(ids, cr.RemoteID)
		byRemote[cr.RemoteID] = cr
		gens[cr.RemoteID] = cr.gen
	}
	c.mu.Unlock()

	var res client.ReconcileResult
	if len(ids) > 0 {
		var err error
		res, err = n.cli.ReconcileRuns(c.ctx, ids)
		if err != nil {
			c.mu.Lock()
			n.pendingReconcile = false
			for _, remoteID := range ids {
				if cr := byRemote[remoteID]; cr.gen == gens[remoteID] && cr.Final == nil {
					c.watchLocked(cr, n)
				}
			}
			c.mu.Unlock()
			c.logf("fleet: reconcile with node %s failed: %v", n.ID, err)
			return
		}
	}
	views := map[string]client.RunView{}
	for _, v := range res.Runs {
		views[v.ID] = v
	}

	adopted, resumed := 0, 0
	requeues := append([]*crun(nil), unplaced...)
	c.mu.Lock()
	if len(ids) > 0 {
		n.lastBeat = time.Now()
	}
	for _, remoteID := range ids {
		cr := byRemote[remoteID]
		var view *client.RunView
		if v, ok := views[remoteID]; ok {
			view = &v
		}
		verdict := reconcileVerdictFor(view)
		if cr.gen != gens[remoteID] || cr.Final != nil {
			if verdict == verdictAdopt {
				c.met.adopted.Inc()
				adopted++
			}
			continue // moved or settled meanwhile; nothing to commit
		}
		switch verdict {
		case verdictAdopt:
			c.met.adopted.Inc()
			adopted++
			v := *view
			v.ID = cr.ID
			c.settleLocked(cr, &v)
		case verdictResume:
			resumed++
			c.advanceLocked(cr, client.Event{State: view.State, At: time.Now()})
			c.watchLocked(cr, n)
		case verdictRequeue:
			requeues = append(requeues, cr)
		}
	}
	n.pendingReconcile = false
	c.mu.Unlock()
	for _, cr := range requeues {
		// The returning node is a legitimate target again — no exclusion.
		c.requeue(cr, "lost across coordinator restart", false)
	}
	c.logf("fleet: reconciled %d runs with node %s (%d adopted, %d resumed, %d requeued)",
		len(runs), n.ID, adopted, resumed, len(requeues))
}
