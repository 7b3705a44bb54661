package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/obs"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

// Config parameterizes a Coordinator. The zero value works: round-robin
// placement, default heartbeat timing, three requeues per run.
type Config struct {
	// Placement selects the routing strategy (default round_robin).
	Placement Placement
	// Health is the heartbeat-timeout state machine's timing.
	Health HealthConfig
	// MaxRequeues bounds how many times one run may be re-placed after
	// node deaths or drains before it fails deterministically (default 3;
	// negative means 0).
	MaxRequeues int
	// Faults injects failures at SiteNodeDispatch (per dispatch attempt)
	// and SiteHTTPRequest (per inbound request). Nil is a no-op.
	Faults *faults.Injector
	// HTTPClient carries coordinator → node traffic (default a fresh
	// client; tests inject one wired to httptest servers).
	HTTPClient *http.Client
	// Logf receives operational log lines (default: discarded).
	Logf func(format string, args ...any)
	// Store, when non-nil, journals the node ledger, run registry, and
	// (through the sweep index) sweeps so a restarted coordinator
	// rehydrates its routing table before serving (see persist.go). The
	// caller owns the store's lifecycle; Close does not close it.
	Store *store.Store
	// Elastic configures the drain-on-idle elasticity hook.
	Elastic ElasticConfig
}

// ElasticConfig drives the coordinator's elasticity hook off the
// queue-depth heartbeats: drain-on-idle retires surplus nodes, surfacing as
// pdpad_fleet_scale_down_signals_total and a Logf line.
type ElasticConfig struct {
	// DrainIdleAfter: a healthy node with no placements, an empty queue,
	// and nothing inflight for this long is scale-drained — at most one
	// node per monitor tick, never below MinNodes. 0 disables.
	DrainIdleAfter time.Duration
	// MinNodes is the floor drain-on-idle respects (0 means 1).
	MinNodes int
}

// node is the coordinator's record of one registered node.
type node struct {
	nodeRecord // the durable part, journaled as it stands
	cli        *client.Client

	lastBeat     time.Time
	beats        uint64
	queueDepth   int
	inflight     int
	nodeDraining bool

	// pendingReconcile marks a node whose runs are not settled yet: one
	// rehydrated from the store that has not re-registered since the
	// coordinator restarted (heartbeats answer 404 so its agent re-registers),
	// or the new incarnation that inherited its runs, until reconcile
	// commits. Such a node is unhealthy: no placements, no watchers.
	// Liveness still applies — a recovered node that never returns is
	// declared dead and its runs requeue.
	pendingReconcile bool
}

// crun is the coordinator's record of one run it has placed somewhere.
type crun struct {
	// crunRecord is the durable part, journaled as it stands: the spec,
	// the placement (NodeID, RemoteID), the live state, and Final, set
	// exactly once when the run reaches a terminal state, which survives
	// the serving node's death.
	crunRecord
	// gen increments on every placement change so stale watchers and
	// dispatches cannot commit; unwatch stops the placement's watcher.
	gen     int
	unwatch context.CancelFunc
}

// Coordinator owns fleet admission and routing. It is a server.Backend —
// the v1 run and sweep surface is internal/server's, serving the
// coordinator's routing table — plus the node plane mounted beside it.
// Create with NewCoordinator; it implements http.Handler.
type Coordinator struct {
	srv       *server.Server
	placement Placement
	health    HealthConfig
	maxReq    int
	flts      *faults.Injector
	hc        *http.Client
	logf      func(string, ...any)

	mu       sync.Mutex
	draining bool
	nodes    map[string]*node
	order    []*node // registration order
	nodeSeq  int
	rrNext   int
	// runs is the run registry: every run by ID, the spec-key affinity
	// index, and the bounded history of terminal runs.
	runs *runqueue.Ledger[*crun]

	*runqueue.SweepIndex // the v1 sweep calls

	store     *store.Store
	elastic   ElasticConfig
	idleSince map[string]time.Time // node ID → first tick observed idle

	reg *obs.Registry
	met coordMetrics

	// ctx bounds the coordinator's own work, which outlives the request
	// that started it (monitor, watchers, requeues, reconciles). Close
	// cancels it under mu, so no watcher starts after, then waits for wg.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type coordMetrics struct {
	heartbeats       *obs.Counter
	dispatches       *obs.Counter
	dispatchFailures *obs.Counter
	requeues         *obs.Counter
	requeueFailures  *obs.Counter
	nodeDeaths       *obs.Counter
	storeErrors      *obs.Counter
	recoveredNodes   *obs.Counter
	recoveredRuns    *obs.Counter
	recoveredSweeps  *obs.Counter
	reconciled       *obs.Counter
	adopted          *obs.Counter
	scaleDown        *obs.Counter
	cacheHits        *obs.Counter
	dedupHits        *obs.Counter
}

// NewCoordinator returns a running coordinator (its heartbeat monitor is
// started). Stop it with Close.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	pl, err := ParsePlacement(string(cfg.Placement))
	if err != nil {
		return nil, err
	}
	if cfg.MaxRequeues == 0 {
		cfg.MaxRequeues = 3
	}
	if cfg.MaxRequeues < 0 {
		cfg.MaxRequeues = 0
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		placement: pl,
		health:    cfg.Health.withDefaults(),
		maxReq:    cfg.MaxRequeues,
		flts:      cfg.Faults,
		hc:        cfg.HTTPClient,
		logf:      cfg.Logf,
		nodes:     map[string]*node{},
		store:     cfg.Store,
		elastic:   cfg.Elastic,
		idleSince: map[string]time.Time{},
		reg:       obs.NewRegistry(),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.met = coordMetrics{
		heartbeats:       c.reg.Counter("pdpad_fleet_heartbeats_total", "Heartbeats accepted from registered nodes."),
		dispatches:       c.reg.Counter("pdpad_fleet_dispatches_total", "Runs successfully placed on a node."),
		dispatchFailures: c.reg.Counter("pdpad_fleet_dispatch_failures_total", "Dispatch attempts that failed and triggered failover."),
		requeues:         c.reg.Counter("pdpad_fleet_requeues_total", "Runs re-placed after a node death or drain."),
		requeueFailures:  c.reg.Counter("pdpad_fleet_requeue_failures_total", "Runs failed because re-placement was impossible or exhausted."),
		nodeDeaths:       c.reg.Counter("pdpad_fleet_node_deaths_total", "Nodes declared dead after missed heartbeats."),
		storeErrors:      c.reg.Counter("pdpad_fleet_store_errors_total", "Coordinator store appends, compactions, or recovered records that failed (never fatal)."),
		recoveredNodes:   c.reg.Counter("pdpad_fleet_recovered_nodes_total", "Node-ledger entries rehydrated from the store at startup."),
		recoveredRuns:    c.reg.Counter("pdpad_fleet_recovered_runs_total", "Run-registry entries rehydrated from the store at startup."),
		recoveredSweeps:  c.reg.Counter("pdpad_fleet_recovered_sweeps_total", "Sweep shard maps rehydrated from the store at startup."),
		reconciled:       c.reg.Counter("pdpad_fleet_reconciled_runs_total", "Runs whose state was settled with a returning node after a coordinator restart."),
		adopted:          c.reg.Counter("pdpad_fleet_adopted_results_total", "Terminal results returning nodes reported during reconcile."),
		scaleDown:        c.reg.Counter("pdpad_fleet_scale_down_signals_total", "Nodes scale-drained by the drain-on-idle elasticity hook."),
		// The series a pool counts its repeats in: a repeat the coordinator
		// answers never reaches a node.
		cacheHits: c.reg.Counter("pdpad_cache_hits_total", "Submissions served from a finished run in the coordinator's history."),
		dedupHits: c.reg.Counter("pdpad_dedup_hits_total", "Submissions that joined an identical pending run (singleflight)."),
	}
	c.reg.GaugeFunc("pdpad_goroutines", "Live goroutines in the serving process (leak smoke-checks read this).",
		func() float64 { return float64(runtime.NumGoroutine()) })
	c.reg.GaugeFunc("pdpad_fleet_nodes", "Registered nodes not yet drained.",
		func() float64 { return float64(*c.Health().Nodes) })
	c.reg.GaugeFunc("pdpad_fleet_nodes_healthy",
		"Nodes whose state is healthy; one whose own pool is draining still counts but gets no placements.",
		func() float64 { return float64(*c.Health().Healthy) })

	c.srv = server.New(c, server.WithRole(server.RoleCoordinator), server.WithFaults(cfg.Faults))
	c.srv.HandleFunc("POST /v1/nodes/register", c.handleRegister)
	c.srv.HandleFunc("POST /v1/nodes/{id}/heartbeat", c.handleHeartbeat)
	c.srv.HandleFunc("GET /v1/nodes", c.handleListNodes)
	c.srv.HandleFunc("POST /v1/nodes/{id}/cordon", c.handleCordon("cordon"))
	c.srv.HandleFunc("POST /v1/nodes/{id}/uncordon", c.handleCordon("uncordon"))
	c.srv.HandleFunc("POST /v1/nodes/{id}/drain", c.handleDrainNode)

	c.SweepIndex = runqueue.NewSweepIndex(kindCoordSweep, c.store, c.met.storeErrors, runqueue.SweepHooks{
		Admit:   c.admitSweep,
		Members: c.sweepMembers,
		Cancel:  func(ctx context.Context, id string) { c.CancelRun(ctx, id) },
	})
	c.runs = newRunLedger(c)
	// Rehydrate the routing table from the store before serving a single
	// request and before the monitor can rule on liveness.
	if c.store != nil {
		rec := recoverFleet(c.SweepIndex, c.runs, c.store.TakeRecovered())
		c.met.recoveredSweeps.Add(uint64(rec.sweeps))
		c.met.recoveredRuns.Add(uint64(rec.runs))
		c.rehydrate(rec)
	}

	c.wg.Add(1)
	go c.monitor()
	return c, nil
}

// ServeHTTP implements http.Handler: every route, node plane included,
// passes through the server's front door (panic recovery and the
// SiteHTTPRequest fault point).
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.srv.ServeHTTP(w, r)
}

// Metrics exposes the coordinator's metric registry — the same numbers
// /metrics renders, readable in-process by tests and the scenario runner.
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// Close stops the monitor and the run watchers and drops node connections.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.cancel()
	c.mu.Unlock()
	c.wg.Wait()
	c.hc.CloseIdleConnections()
}

// Drain stops admissions and waits until every coordinated run is terminal
// (or ctx expires), following each pending run's events to its end.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	var pending []string
	c.runs.Each(false, func(cr *crun) {
		if cr.Final == nil {
			pending = append(pending, cr.ID)
		}
	})
	c.mu.Unlock()
	for i, id := range pending {
		if c.FollowRun(ctx, id, func(client.Event) {}); ctx.Err() != nil {
			return fmt.Errorf("fleet: drain interrupted with up to %d runs pending: %w", len(pending)-i, ctx.Err())
		}
	}
	return nil
}

// pendingLocked groups the non-terminal runs by the node their NodeID
// names, oldest first: a node's load is exactly its slice. It is the one
// place node load is counted, always from the run ledger.
func (c *Coordinator) pendingLocked() map[string][]*crun {
	out := map[string][]*crun{}
	c.runs.Each(false, func(cr *crun) {
		if cr.Final == nil && cr.NodeID != "" {
			out[cr.NodeID] = append(out[cr.NodeID], cr)
		}
	})
	return out
}

// ---------------------------------------------------------------------------
// Node liveness and the monitor goroutine.

// monitor periodically re-evaluates node liveness and requeues the runs of
// nodes that crossed DeadAfter.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	interval := c.health.HeartbeatInterval / 2
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.tick()
		}
	}
}

// tick is one monitor pass: declare dead nodes drained, requeue their
// non-terminal runs, and evaluate the drain-on-idle hook.
func (c *Coordinator) tick() {
	now := time.Now()
	var orphans []*crun
	c.mu.Lock()
	for _, n := range c.order {
		if n.Drained {
			continue
		}
		if c.health.Liveness(now.Sub(n.lastBeat)) != StateDrained {
			continue
		}
		n.Drained = true
		c.met.nodeDeaths.Inc()
		c.persistNodeLocked(n)
		delete(c.idleSince, n.ID)
		c.logf("fleet: node %s (%s) declared dead after %v of silence", n.ID, n.Addr, now.Sub(n.lastBeat))
		orphans = append(orphans, c.pendingLocked()[n.ID]...)
	}
	c.scaleDownLocked(now)
	c.mu.Unlock()
	for _, cr := range orphans {
		c.requeue(cr, "node died", true)
	}
}

// scaleDownLocked implements drain-on-idle: a node that has held no
// placements, an empty queue, and nothing inflight for DrainIdleAfter is
// scale-drained — at most one per tick, never below MinNodes.
func (c *Coordinator) scaleDownLocked(now time.Time) {
	if c.elastic.DrainIdleAfter <= 0 {
		return
	}
	min := c.elastic.MinNodes
	if min < 1 {
		min = 1
	}
	eligible := c.eligibleLocked(nil)
	pending := c.pendingLocked()
	var victim *node
	var victimSince time.Time
	for _, n := range eligible {
		idle := len(pending[n.ID]) == 0 && n.queueDepth == 0 && n.inflight == 0
		if !idle {
			delete(c.idleSince, n.ID)
			continue
		}
		since, ok := c.idleSince[n.ID]
		if !ok {
			c.idleSince[n.ID] = now
			continue
		}
		if now.Sub(since) < c.elastic.DrainIdleAfter {
			continue
		}
		if victim == nil || since.Before(victimSince) {
			victim, victimSince = n, since
		}
	}
	if victim == nil || len(eligible) <= min {
		return
	}
	victim.Drained = true
	victim.ScaleDrained = true
	delete(c.idleSince, victim.ID)
	c.met.scaleDown.Inc()
	c.persistNodeLocked(victim)
	c.logf("fleet: node %s idle for %v, scale-drained (fleet has %d eligible nodes, floor %d)",
		victim.ID, now.Sub(victimSince), len(eligible), min)
}

// stateLocked is a node's state, decided here and nowhere else: liveness
// from its heartbeat clock, then drain and cordon (CombineState). A node
// whose runs await reconcile is never healthy, whatever its clock says.
// GET /v1/nodes, /healthz and placement all read it.
func (c *Coordinator) stateLocked(n *node, now time.Time) NodeState {
	live := c.health.Liveness(now.Sub(n.lastBeat))
	if n.pendingReconcile {
		live = StateUnhealthy
	}
	return CombineState(live, n.Cordoned, n.Drained)
}

// eligibleLocked returns the nodes placements may target, in registration
// order: healthy, and not draining their own pool.
func (c *Coordinator) eligibleLocked(exclude map[string]bool) []*node {
	now := time.Now()
	var out []*node
	for _, n := range c.order {
		if !n.nodeDraining && !exclude[n.ID] && c.stateLocked(n, now) == StateHealthy {
			out = append(out, n)
		}
	}
	return out
}

// assignLocked places cr on n, or unplaces it when n is nil. The placement
// is the run's NodeID (with the node's address, for recovery), so the run
// counts toward n's load from here until it settles or moves; the watcher
// of its old placement stops. The remote ID is the caller's: a dispatch
// clears it, a transfer to a returning node keeps it for reconcile to ask
// about.
func (c *Coordinator) assignLocked(cr *crun, n *node) {
	cr.stopWatch()
	cr.NodeID, cr.NodeAddr = "", ""
	if n != nil {
		cr.NodeID, cr.NodeAddr = n.ID, n.Addr
	}
	cr.gen++
}

// ---------------------------------------------------------------------------
// Placement and dispatch.

// errDraining and errNoHealthy are coordinator-level admission rejections.
var (
	errDraining  = errors.New("fleet: coordinator is draining")
	errNoHealthy = errors.New("fleet: no healthy node available for placement")
)

// place picks a node for cr and dispatches it, failing over across nodes
// until one accepts or none remain. On success cr is committed (remote ID
// set, its watcher started) and the node's answer returned; on failure the
// reservation is released and the last error returned.
func (c *Coordinator) place(ctx context.Context, cr *crun, exclude map[string]bool) (client.SubmitResult, error) {
	if exclude == nil {
		exclude = map[string]bool{}
	}
	body := client.SubmitRunRequest{
		Workload:  cr.Spec.Workload,
		Options:   cr.Spec.Options,
		DeadlineS: cr.DeadlineS,
	}
	var lastErr error
	for {
		c.mu.Lock()
		cands := c.eligibleLocked(exclude)
		if len(cands) == 0 {
			c.mu.Unlock()
			if lastErr != nil {
				return client.SubmitResult{}, lastErr
			}
			return client.SubmitResult{}, errNoHealthy
		}
		n := c.pickLocked(cands)
		c.assignLocked(cr, n)
		cr.RemoteID = ""
		gen := cr.gen
		cli := n.cli
		c.mu.Unlock()

		err := c.flts.Hit(ctx, faults.SiteNodeDispatch)
		var res client.SubmitResult
		if err == nil {
			res, err = cli.SubmitRun(ctx, body)
		} else {
			err = fmt.Errorf("fleet: injected dispatch fault for node %s: %w", n.ID, err)
		}
		if err == nil {
			c.met.dispatches.Inc()
			c.mu.Lock()
			if cr.gen == gen {
				cr.RemoteID = res.ID
				c.advanceLocked(cr, client.Event{State: res.State, At: time.Now()})
				cr.CacheHit = res.CacheHit
				cr.Deduped = res.Deduped
				c.runs.Persist(cr.ID)
				c.watchLocked(cr, n)
			}
			c.mu.Unlock()
			return res, nil
		}
		lastErr = err
		c.mu.Lock()
		if cr.gen == gen {
			c.assignLocked(cr, nil)
		}
		c.mu.Unlock()
		var api *client.APIError
		if errors.As(err, &api) && api.Status >= 400 && api.Status < 500 &&
			api.Status != http.StatusTooManyRequests {
			// The node judged the request itself bad; every node would.
			return client.SubmitResult{}, err
		}
		c.met.dispatchFailures.Inc()
		c.logf("fleet: dispatch to node %s failed: %v", n.ID, err)
		exclude[n.ID] = true
	}
}

// requeue re-places a run after its node died or was drained, under the
// coordinator's own context, failing it deterministically once the requeue
// budget is spent or no node remains. exclude keeps the run off the node it
// lost; reconcile passes false when it re-places runs a returning node has
// no record of, since that node is a legitimate target again.
func (c *Coordinator) requeue(cr *crun, reason string, exclude bool) {
	c.mu.Lock()
	if cr.Final != nil {
		c.mu.Unlock()
		return
	}
	cr.Requeues++
	c.met.requeues.Inc()
	from := cr.NodeID
	if cr.Requeues > c.maxReq {
		c.met.requeueFailures.Inc()
		c.failLocked(cr, fmt.Sprintf("%s (node %s); requeue budget of %d exhausted", reason, from, c.maxReq))
		c.mu.Unlock()
		return
	}
	c.assignLocked(cr, nil)
	c.advanceLocked(cr, client.Event{State: "queued", At: time.Now()})
	c.mu.Unlock()
	excluded := map[string]bool{}
	if exclude {
		excluded[from] = true
	}
	if _, err := c.place(c.ctx, cr, excluded); err != nil {
		c.met.requeueFailures.Inc()
		c.mu.Lock()
		c.failLocked(cr, fmt.Sprintf("%s (node %s); re-placement failed: %v", reason, from, err))
		c.mu.Unlock()
		return
	}
	c.logf("fleet: run %s requeued from node %s (%s)", cr.ID, from, reason)
}

// failLocked terminally fails a run coordinator-side, synthesizing the
// final view so the failure survives regardless of node state.
func (c *Coordinator) failLocked(cr *crun, msg string) {
	if cr.Final != nil {
		return
	}
	now := time.Now()
	c.settleLocked(cr, &client.RunView{
		ID:          cr.ID,
		State:       "failed",
		Error:       msg,
		SubmittedAt: cr.Submitted,
		FinishedAt:  &now,
		CacheKey:    cr.Key,
		Spec:        client.Spec(cr.Spec),
	})
	c.logf("fleet: run %s failed: %s", cr.ID, msg)
}

// settleLocked commits a run's terminal view, which ends its load on its
// node and its watcher, publishes its terminal event, and the ledger
// journals the run and keeps the registry within its bound, so every scan
// and compaction over it stays bounded. A sweep whose member is evicted
// reads failed ("evicted from history"), as on a pool.
func (c *Coordinator) settleLocked(cr *crun, v *client.RunView) {
	cr.stopWatch()
	cr.Final = v
	cr.State = v.State
	c.runs.Settle(cr.ID)
}

// advanceLocked moves a pending run to a new non-terminal state, appending
// ev to its event chain; a terminal state comes only with settleLocked.
func (c *Coordinator) advanceLocked(cr *crun, ev client.Event) {
	if ev.State == cr.State || client.Terminal(ev.State) {
		return
	}
	cr.State = ev.State
	c.runs.Advance(cr.ID, ev)
}

// placementLocked resolves where a run lives: its node and the node-side
// run ID. Every coordinator → node call about an existing run goes through
// it. The node is nil when the run has no placement yet, or when its node
// has not re-registered since a coordinator restart: that old address may
// now answer for a different incarnation that reused the remote ID, so
// nothing may be sent there.
func (c *Coordinator) placementLocked(cr *crun) (*node, string) {
	n := c.nodes[cr.NodeID]
	if n == nil || n.pendingReconcile || cr.RemoteID == "" {
		return nil, ""
	}
	return n, cr.RemoteID
}

// cancelOnNode asks a pending run's node to cancel it and returns the
// node's answer with the run ID rewritten; the view is nil when the run has
// settled, has no node to ask, or the node did not answer with a view.
func (c *Coordinator) cancelOnNode(ctx context.Context, cr *crun) (*client.RunView, error) {
	c.mu.Lock()
	n, remoteID := c.placementLocked(cr)
	final := cr.Final
	c.mu.Unlock()
	if n == nil || final != nil {
		return nil, nil
	}
	v, err := n.cli.CancelRun(ctx, remoteID)
	if err != nil {
		return nil, err
	}
	v.ID = cr.ID
	return &v, nil
}

// watchLocked starts the watcher of cr's new placement on n.
func (c *Coordinator) watchLocked(cr *crun, n *node) {
	if c.ctx.Err() != nil {
		return
	}
	ctx, cancel := context.WithCancel(c.ctx)
	cr.unwatch = cancel
	c.wg.Add(1)
	go c.watch(ctx, cr, n.cli, cr.RemoteID, cr.gen)
}

// stopWatch stops the run's watcher, if it has one.
func (cr *crun) stopWatch() {
	if cr.unwatch != nil {
		cr.unwatch()
		cr.unwatch = nil
	}
}

// watch follows one placement of a run on its node's event stream: state
// changes join the run's own event chain, and the terminal event settles
// the run with one fetch of its final view, unless the run moved. A stream
// that ends early is followed again each heartbeat interval until the run
// settles or moves: the monitor decides a silent node's fate.
func (c *Coordinator) watch(ctx context.Context, cr *crun, cli *client.Client, remoteID string, gen int) {
	defer c.wg.Done()
	for {
		terminal := false
		cli.FollowRun(ctx, remoteID, func(ev client.Event) bool {
			if terminal = client.Terminal(ev.State); terminal {
				return false
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if cr.gen == gen {
				c.advanceLocked(cr, ev)
			}
			return cr.gen == gen
		})
		if terminal {
			if v, err := cli.Run(ctx, remoteID); err == nil {
				v.ID = cr.ID
				c.mu.Lock()
				if cr.gen == gen && cr.Final == nil {
					c.settleLocked(cr, &v)
				}
				c.mu.Unlock()
				return
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(c.health.HeartbeatInterval):
		}
	}
}

// ---------------------------------------------------------------------------
// Submission.

// submitOne admits one spec: answered by the run ledger (a cache hit or a
// join of a pending run, counted here because the nodes never see the
// repeat), or placed fresh. The returned crun is non-nil exactly when a new
// run was created (the caller unwinds it on batch failure).
func (c *Coordinator) submitOne(ctx context.Context, spec runqueue.Spec, deadlineS float64) (client.SubmitResult, *crun, error) {
	key := spec.Key()
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return client.SubmitResult{}, nil, errDraining
	}
	if ex, hit := c.runs.Lookup(key); ex != nil {
		out := client.SubmitResult{ID: ex.ID, State: ex.State, CacheHit: hit, Deduped: !hit}
		if hit {
			c.met.cacheHits.Inc()
		} else {
			c.met.dedupHits.Inc()
		}
		c.mu.Unlock()
		return out, nil, nil
	}
	cr := c.runs.Add(key, func(id string) *crun {
		return &crun{crunRecord: crunRecord{ID: id, Key: key, Spec: spec, DeadlineS: deadlineS, Submitted: time.Now(), State: "queued"}}
	})
	c.mu.Unlock()
	res, err := c.place(ctx, cr, nil)
	if err != nil {
		c.remove(cr, err)
		return client.SubmitResult{}, nil, err
	}
	res.ID = cr.ID
	return res, cr, nil
}

// remove erases a run that never committed (failed dispatch, sweep unwind)
// from the registry and, with a cdel record, from the journal; its event
// chain ends with the failure, so no follower waits on a run that is gone.
func (c *Coordinator) remove(cr *crun, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.assignLocked(cr, nil)
	c.runs.Advance(cr.ID, client.Event{State: "failed", At: time.Now(), Message: err.Error()})
	c.runs.Forget(cr.ID)
}

// ---------------------------------------------------------------------------
// The v1 run and sweep surface: the server.Backend methods.

// wireError classifies a coordinator failure for the v1 envelope: its own
// admission rejections, node envelopes relayed verbatim — status, code, and
// retry hint, so a fleet client sees exactly what a standalone client would
// — and anything else (a node that did not answer) as 502 node_unreachable.
func wireError(err error) error {
	var api *client.APIError
	switch {
	case errors.Is(err, errDraining):
		return &client.APIError{Status: http.StatusServiceUnavailable, Code: server.CodeDraining, Message: err.Error()}
	case errors.Is(err, errNoHealthy):
		return &client.APIError{Status: http.StatusServiceUnavailable, Code: server.CodeNoHealthyNodes, Message: err.Error()}
	case errors.As(err, &api):
		return api
	}
	return &client.APIError{Status: http.StatusBadGateway, Code: server.CodeNodeUnreachable, Message: err.Error()}
}

func notFound(format string, args ...any) error {
	return &client.APIError{Status: http.StatusNotFound, Code: server.CodeNotFound, Message: fmt.Sprintf(format, args...)}
}

// viewLocked renders a run for the wire: its final view, as the serving
// node reported it with the run ID rewritten, or its pending state, so
// coordinator responses are shaped exactly like standalone ones.
func (c *Coordinator) viewLocked(cr *crun, includeResult bool) client.RunView {
	v := client.RunView{
		ID: cr.ID, State: cr.State, SubmittedAt: cr.Submitted,
		CacheKey: cr.Key, Spec: client.Spec(cr.Spec),
	}
	if cr.Final != nil {
		v = *cr.Final
	}
	if !includeResult {
		v.Result = nil
	}
	return v
}

func (c *Coordinator) lookupRun(id string) (*crun, error) {
	c.mu.Lock()
	cr := c.runs.Get(id)
	c.mu.Unlock()
	if cr == nil {
		return nil, notFound("fleet: no run %q", id)
	}
	return cr, nil
}

// SubmitRun admits one run: deduplicated against the fleet-wide affinity
// index, or placed on a node with failover.
func (c *Coordinator) SubmitRun(ctx context.Context, req client.SubmitRunRequest) (client.SubmitResult, error) {
	spec := runqueue.Spec{Workload: req.Workload, Options: req.Options}
	if err := spec.Validate(); err != nil {
		return client.SubmitResult{}, err
	}
	out, _, err := c.submitOne(ctx, spec, req.DeadlineS)
	if err != nil {
		return client.SubmitResult{}, wireError(err)
	}
	return out, nil
}

// Run returns a run's view, its result included once done.
func (c *Coordinator) Run(ctx context.Context, id string) (client.RunView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cr := c.runs.Get(id); cr != nil {
		return c.viewLocked(cr, true), nil
	}
	return client.RunView{}, notFound("fleet: no run %q", id)
}

// CancelRun cancels a run on its node and returns the node's answer, as a
// pool answers; a terminal answer waits for the run's watcher to settle it,
// so the next read sees it. A node that does not answer fails the call; for
// a run settled, unplaced, or gone on its node, its own view answers.
func (c *Coordinator) CancelRun(ctx context.Context, id string) (client.RunView, error) {
	cr, err := c.lookupRun(id)
	if err != nil {
		return client.RunView{}, err
	}
	v, err := c.cancelOnNode(ctx, cr)
	var api *client.APIError
	switch {
	case v != nil && v.Terminal():
		c.FollowRun(ctx, id, func(client.Event) {})
		return *v, nil
	case v != nil:
		return *v, nil
	case err != nil && !errors.As(err, &api):
		return client.RunView{}, wireError(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked(cr, false), nil
}

// ListRuns returns every run's view, newest first, without results.
func (c *Coordinator) ListRuns(ctx context.Context) []client.RunView {
	c.mu.Lock()
	defer c.mu.Unlock()
	views := make([]client.RunView, 0, c.runs.Len())
	c.runs.Each(true, func(cr *crun) { views = append(views, c.viewLocked(cr, false)) })
	return views
}

// FollowRun walks the run's own event chain, as a pool's FollowRun does: a
// follower outlives the serving node's death (queued again on requeue), and
// the terminal event goes out once the final view is committed here.
func (c *Coordinator) FollowRun(ctx context.Context, id string, emit func(client.Event)) error {
	c.mu.Lock()
	ev := c.runs.Events(id)
	c.mu.Unlock()
	if ev == nil {
		return notFound("fleet: no run %q", id)
	}
	return ev.Follow(ctx, emit)
}

// Trace fetches a run's decision trace from its node.
func (c *Coordinator) Trace(ctx context.Context, id string) ([]byte, error) {
	cr, err := c.lookupRun(id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	n, remoteID := c.placementLocked(cr)
	c.mu.Unlock()
	if n == nil {
		return nil, notFound("fleet: run %s has no reachable decision trace", cr.ID)
	}
	raw, err := n.cli.Trace(ctx, remoteID)
	if err != nil {
		return nil, wireError(err)
	}
	return raw, nil
}

// The sweep calls are promoted from the embedded runqueue.SweepIndex, the
// one a pool serves its sweeps from; its hooks (the two below, and
// CancelRun) are all that is fleet-specific.

// admitSweep shards a grid's members across the fleet one by one. Members
// dispatch in placement order (LPT sorts by cost) but run IDs keep grid
// order, which is what reassembly indexes by. Batch admission is atomic: a
// member that cannot be placed unwinds the members already placed.
func (c *Coordinator) admitSweep(ctx context.Context, members []runqueue.Spec, deadlineS float64) (client.SweepSubmitResult, error) {
	res := client.SweepSubmitResult{RunIDs: make([]string, len(members))}
	var created []*crun
	for _, idx := range c.lptOrder(members) {
		out, cr, err := c.submitOne(ctx, members[idx], deadlineS)
		if err != nil {
			for _, u := range created {
				c.cancelOnNode(ctx, u)
				c.remove(u, err)
			}
			return client.SweepSubmitResult{}, wireError(err)
		}
		res.RunIDs[idx] = out.ID
		if out.CacheHit {
			res.CacheHits++
		}
		if out.Deduped {
			res.Deduped++
		}
		if cr != nil {
			created = append(created, cr)
		}
	}
	return res, nil
}

// sweepMembers reports each member as a sweep sees it. Aggregating those
// through runqueue.SweepSpec.View, as a single pool does, is the
// byte-identity contract: fleet cells equal standalone cells.
func (c *Coordinator) sweepMembers(ctx context.Context, runIDs []string) []runqueue.SweepMember {
	c.mu.Lock()
	defer c.mu.Unlock()
	members := make([]runqueue.SweepMember, len(runIDs))
	for i, id := range runIDs {
		cr := c.runs.Get(id)
		switch {
		case cr == nil:
			members[i] = runqueue.SweepMember{ID: id, Missing: true}
		case cr.Final != nil:
			members[i] = runqueue.SweepMember{ID: cr.ID, State: runqueue.State(cr.Final.State),
				Err: cr.Final.Error, Result: cr.Final.Result}
		default:
			members[i] = runqueue.SweepMember{ID: cr.ID, State: runqueue.State(cr.State)}
		}
	}
	return members
}

// Health reports admission state and the fleet-wide queue from the nodes'
// last heartbeats, with the node counts.
func (c *Coordinator) Health() client.Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := client.Health{Status: "ok"}
	if c.draining {
		h.Status = "draining"
	}
	total, healthy := 0, 0
	now := time.Now()
	for _, n := range c.order {
		if n.Drained {
			continue
		}
		total++
		h.Queue += n.queueDepth
		h.Inflight += n.inflight
		if c.stateLocked(n, now) == StateHealthy {
			healthy++
		}
	}
	h.Nodes, h.Healthy = &total, &healthy
	return h
}

// ---------------------------------------------------------------------------
// Node plane.

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req client.NodeRegisterRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if req.APIRevision != server.APIRevision {
		server.WriteError(w, http.StatusBadRequest, server.CodeIncompatibleRevision,
			fmt.Errorf("fleet: node speaks API revision %d, coordinator speaks %d",
				req.APIRevision, server.APIRevision))
		return
	}
	if req.Addr == "" {
		server.WriteError(w, http.StatusBadRequest, server.CodeInvalidRequest,
			errors.New("fleet: registration needs a non-empty addr"))
		return
	}
	now := time.Now()
	var orphans, adoptees []*crun
	inheritCordon := false
	c.mu.Lock()
	pending := c.pendingLocked()
	for _, old := range c.order {
		if old.Drained || old.Addr != req.Addr {
			continue
		}
		old.Drained = true
		c.persistNodeLocked(old)
		if old.pendingReconcile {
			// The same address returning after a coordinator restart: the
			// node kept its pool across the outage, so every run the
			// recovered routing table attributes to it — terminal results
			// included — transfers to the new incarnation for reconcile.
			c.runs.Each(false, func(cr *crun) {
				if cr.NodeID == old.ID {
					adoptees = append(adoptees, cr)
				}
			})
			inheritCordon = inheritCordon || old.Cordoned
			c.logf("fleet: node %s returned as a new registration from %s after coordinator restart; reconciling %d runs",
				old.ID, old.Addr, len(adoptees))
			continue
		}
		// A re-registration from a restarted node: its old incarnation's
		// runs are gone with the old process, so drain the stale record.
		orphans = append(orphans, pending[old.ID]...)
		c.logf("fleet: node %s re-registered from %s; draining stale record", old.ID, old.Addr)
	}
	c.nodeSeq++
	n := &node{
		nodeRecord: nodeRecord{
			ID:           fmt.Sprintf("node-%03d", c.nodeSeq),
			Name:         req.Name,
			Addr:         req.Addr,
			CPUs:         req.CPUs,
			BaseWorkers:  req.BaseWorkers,
			MaxWorkers:   req.MaxWorkers,
			RegisteredAt: now,
			Cordoned:     inheritCordon,
		},
		cli:      client.New(req.Addr, client.WithHTTPClient(c.hc)),
		lastBeat: now,
		// Inherited runs are unsettled until reconcile commits: no
		// placements here and no healthy report before then.
		pendingReconcile: len(adoptees) > 0,
	}
	c.nodes[n.ID] = n
	c.order = append(c.order, n)
	for _, cr := range adoptees {
		// The remote ID stays: the node still holds the run under it, and
		// reconcile is about to ask for the authoritative state.
		c.assignLocked(cr, n)
		c.runs.Persist(cr.ID)
	}
	c.persistNodeLocked(n)
	c.mu.Unlock()
	c.logf("fleet: node %s registered from %s (%d cpus)", n.ID, n.Addr, n.CPUs)
	for _, cr := range orphans {
		c.requeue(cr, "node restarted", true)
	}
	c.reconcile(n, adoptees)
	server.WriteJSON(w, http.StatusOK, client.NodeRegisterResponse{
		ID:                 n.ID,
		HeartbeatIntervalS: c.health.HeartbeatInterval.Seconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req client.NodeHeartbeatRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	c.mu.Lock()
	n := c.nodes[id]
	if n != nil && n.Drained && n.ScaleDrained {
		c.mu.Unlock()
		// A scale-drain is an instruction, not an amnesia: answering
		// "drained" makes the agent leave the fleet instead of the 404 that
		// would make it re-register.
		server.WriteJSON(w, http.StatusOK, client.NodeHeartbeatResponse{State: string(StateDrained)})
		return
	}
	if n == nil || n.Drained || n.pendingReconcile {
		c.mu.Unlock()
		// 404 tells the node to re-register: it is unknown, was declared
		// dead and its record is now a tombstone, or it predates a
		// coordinator restart and must run the reconcile protocol.
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound,
			fmt.Errorf("fleet: no live node %q (re-register)", id))
		return
	}
	n.lastBeat = time.Now()
	n.beats++
	n.queueDepth = req.QueueDepth
	n.inflight = req.Inflight
	n.nodeDraining = req.Draining
	state := c.stateLocked(n, n.lastBeat)
	c.mu.Unlock()
	c.met.heartbeats.Inc()
	server.WriteJSON(w, http.StatusOK, client.NodeHeartbeatResponse{State: string(state)})
}

// nodeViewLocked renders a node in its wire form; assigned is its pending
// runs (pendingLocked).
func (c *Coordinator) nodeViewLocked(n *node, assigned []*crun) client.NodeView {
	return client.NodeView{
		ID:              n.ID,
		Name:            n.Name,
		Addr:            n.Addr,
		State:           string(c.stateLocked(n, time.Now())),
		Cordoned:        n.Cordoned,
		CPUs:            n.CPUs,
		BaseWorkers:     n.BaseWorkers,
		MaxWorkers:      n.MaxWorkers,
		RegisteredAt:    n.RegisteredAt,
		LastHeartbeatAt: n.lastBeat,
		Heartbeats:      n.beats,
		QueueDepth:      n.queueDepth,
		Inflight:        n.inflight,
		Draining:        n.nodeDraining,
		Assigned:        len(assigned),
	}
}

func (c *Coordinator) handleListNodes(w http.ResponseWriter, r *http.Request) {
	p, err := server.ParsePageParams(r,
		string(StateHealthy), string(StateCordoned), string(StateUnhealthy), string(StateDrained))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeInvalidRequest, err)
		return
	}
	c.mu.Lock()
	pending := c.pendingLocked()
	views := make([]client.NodeView, 0, len(c.order))
	for i := len(c.order) - 1; i >= 0; i-- { // newest first
		n := c.order[i]
		views = append(views, c.nodeViewLocked(n, pending[n.ID]))
	}
	c.mu.Unlock()
	page, next := server.Paginate(views, p,
		func(v client.NodeView) string { return v.ID },
		func(v client.NodeView) bool { return p.State == "" || v.State == p.State })
	server.WriteJSON(w, http.StatusOK, client.NodePage{Nodes: page, NextCursor: next})
}

func (c *Coordinator) lookupNode(w http.ResponseWriter, id string) *node {
	c.mu.Lock()
	n := c.nodes[id]
	c.mu.Unlock()
	if n == nil {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound,
			fmt.Errorf("fleet: no node %q", id))
	}
	return n
}

// handleCordon sets a node's manual placement stop (cordon) or clears it
// (uncordon), as verb says.
func (c *Coordinator) handleCordon(verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := c.lookupNode(w, r.PathValue("id"))
		if n == nil {
			return
		}
		c.mu.Lock()
		n.Cordoned = verb == "cordon"
		c.persistNodeLocked(n)
		v := c.nodeViewLocked(n, c.pendingLocked()[n.ID])
		c.mu.Unlock()
		c.logf("fleet: node %s %sed", n.ID, verb)
		server.WriteJSON(w, http.StatusOK, v)
	}
}

// handleDrainNode cordons the node, then evicts its pending runs: each one
// is requeued elsewhere, then cancelled on the node, best effort. Runs it
// finished are settled already and keep their results.
func (c *Coordinator) handleDrainNode(w http.ResponseWriter, r *http.Request) {
	n := c.lookupNode(w, r.PathValue("id"))
	if n == nil {
		return
	}
	c.mu.Lock()
	n.Cordoned = true
	n.Drained = true
	c.persistNodeLocked(n)
	evicted := c.pendingLocked()[n.ID]
	c.mu.Unlock()
	c.logf("fleet: node %s draining, evicting %d runs", n.ID, len(evicted))
	for _, cr := range evicted {
		c.mu.Lock()
		old, remoteID := c.placementLocked(cr)
		c.mu.Unlock()
		c.requeue(cr, "node drained", true)
		if old != nil {
			old.cli.CancelRun(c.ctx, remoteID)
		}
	}
	c.mu.Lock()
	v := c.nodeViewLocked(n, c.pendingLocked()[n.ID])
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, v)
}
