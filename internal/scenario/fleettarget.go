package scenario

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/fleet"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

// fleetTarget runs a scenario against an in-process coordinator plus node
// fleet, wired through real HTTP (httptest servers) and the public client —
// every event and assertion exercises the same v1 surface a remote operator
// would.
//
// Determinism: agents start one at a time, each waiting for registration, so
// the scenario's node index equals the coordinator's registration order
// (node-000, node-001, ...). Each node owns a seeded injector (master seed +
// node index) arming the scenario's global rules plus that node's
// node_faults; the coordinator's injector (master seed) arms the global
// rules for its own sites. Metric assertions read the coordinator registry
// first and fall back to summing the per-node pool registries.
type fleetTarget struct {
	hc       *http.Client
	coord    *fleet.Coordinator
	coordSrv *httptest.Server
	cli      *client.Client
	coordInj *faults.Injector
	nodes    []*fleetNode

	// Durable-fleet state: the coordinator journals its routing table to
	// storeDir, and kill_coordinator / restart_coordinator cycle the
	// coordinator while keeping coordAddr stable so node agents and the
	// client reconnect to the same base URL.
	coordCfg  fleet.Config
	coordAddr string
	storeDir  string
	st        *store.Store
	coordDown bool

	sweepIDs []string

	settled      bool
	frozenRuns   map[string]runStatus
	frozenSweeps map[string]sweepStatus
	frozenNodes  []string
}

// fleetNode is one node daemon: pool, HTTP surface, membership agent.
type fleetNode struct {
	inj   *faults.Injector
	pool  *runqueue.Pool
	hsrv  *httptest.Server
	agent *fleet.Agent
	id    string

	stopped bool // agent stopped
	killed  bool // HTTP surface torn down too
}

// registerTimeout bounds each agent's first registration during startup.
const registerTimeout = 10 * time.Second

func newFleetTarget(s *Scenario, sim func(context.Context, runqueue.Spec) (*pdpasim.Outcome, error)) (*fleetTarget, error) {
	f := s.Fleet
	t := &fleetTarget{
		hc:           &http.Client{},
		coordInj:     faults.New(s.Seed, s.Faults...),
		frozenRuns:   map[string]runStatus{},
		frozenSweeps: map[string]sweepStatus{},
	}
	t.coordCfg = fleet.Config{
		Placement: fleet.Placement(f.Placement),
		Health: fleet.HealthConfig{
			HeartbeatInterval: f.Heartbeat,
			UnhealthyAfter:    f.UnhealthyAfter,
			DeadAfter:         f.DeadAfter,
		},
		Elastic: fleet.ElasticConfig{
			DrainIdleAfter:   f.DrainIdleAfter,
			MinNodes:         f.MinNodes,
			JoinBacklogDepth: f.JoinBacklog,
		},
		Faults:     t.coordInj,
		HTTPClient: t.hc,
	}
	if f.Durable {
		dir, err := os.MkdirTemp("", "pdpad-scenario-store-")
		if err != nil {
			return nil, err
		}
		t.storeDir = dir
		st, err := store.Open(dir, store.Options{SyncInterval: -1})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		t.st = st
		t.coordCfg.Store = st
	}
	coord, err := fleet.NewCoordinator(t.coordCfg)
	if err != nil {
		if t.st != nil {
			t.st.Close()
			os.RemoveAll(t.storeDir)
		}
		return nil, err
	}
	t.coord = coord
	t.coordSrv = httptest.NewServer(coord)
	t.coordAddr = t.coordSrv.Listener.Addr().String()
	t.cli = client.New(t.coordSrv.URL, client.WithHTTPClient(t.hc))

	for i := 0; i < f.Nodes; i++ {
		rules := append([]faults.Rule(nil), s.Faults...)
		for _, nf := range f.NodeFaults {
			if nf.Node == i {
				rules = append(rules, nf.Rule)
			}
		}
		inj := faults.New(s.Seed+int64(i), rules...)
		cfg := s.Pool.config()
		cfg.Faults = inj
		cfg.Simulate = sim
		pool := runqueue.New(cfg)
		hsrv := httptest.NewServer(server.New(pool,
			server.WithFaults(inj), server.WithRole(server.RoleNode)))
		agent := fleet.StartAgent(fleet.AgentConfig{
			Coordinator: t.coordSrv.URL,
			Advertise:   hsrv.URL,
			Name:        fmt.Sprintf("n%d", i),
			BaseWorkers: cfg.BaseWorkers,
			MaxWorkers:  cfg.MaxWorkers,
			HTTPClient:  t.hc,
		}, pool)
		n := &fleetNode{inj: inj, pool: pool, hsrv: hsrv, agent: agent}
		t.nodes = append(t.nodes, n)
		select {
		case <-agent.Registered():
			n.id = agent.ID()
		case <-time.After(registerTimeout):
			t.teardown(context.Background())
			return nil, fmt.Errorf("fleet: node %d did not register within %v", i, registerTimeout)
		}
	}
	return t, nil
}

func (t *fleetTarget) submit(spec runqueue.Spec) (admitResult, error) {
	req := client.SubmitRunRequest{Workload: spec.Workload, Options: spec.Options}
	res, err := t.cli.SubmitRun(context.Background(), req)
	if err == nil {
		switch {
		case res.CacheHit:
			return admitResult{id: res.ID, admission: admCacheHit}, nil
		case res.Deduped:
			return admitResult{id: res.ID, admission: admDedup}, nil
		default:
			return admitResult{id: res.ID, admission: admFresh}, nil
		}
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch ae.Code {
		case "overloaded":
			return admitResult{admission: admShed, reject: err}, nil
		case "queue_full":
			return admitResult{admission: admQueueFull, reject: err}, nil
		}
	}
	return admitResult{}, err
}

func runStatusOf(v client.RunView) runStatus {
	return runStatus{state: v.State, errMsg: v.Error, result: v.Result}
}

func (t *fleetTarget) status(id string) (runStatus, error) {
	if t.settled {
		st, ok := t.frozenRuns[id]
		if !ok {
			return runStatus{}, fmt.Errorf("run %s was not frozen at settle", id)
		}
		return st, nil
	}
	v, err := t.cli.Run(context.Background(), id)
	if err != nil {
		return runStatus{}, err
	}
	return runStatusOf(v), nil
}

func (t *fleetTarget) cancel(id string) error {
	_, err := t.cli.CancelRun(context.Background(), id)
	return err
}

func (t *fleetTarget) node(i int) (*fleetNode, error) {
	if i < 0 || i >= len(t.nodes) {
		return nil, fmt.Errorf("node %d out of range", i)
	}
	return t.nodes[i], nil
}

// stopAgent stops a node's membership agent exactly once. Stopping the agent
// before a manual drain matters: a drained node that keeps heartbeating gets
// 404 and re-registers under a fresh ID, which would grow the node list.
func (n *fleetNode) stopAgent() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.agent.Stop()
}

func (t *fleetTarget) nodeEvent(kind string, i int) error {
	n, err := t.node(i)
	if err != nil {
		return fmt.Errorf("%s_node: %w", kind, err)
	}
	switch kind {
	case "kill":
		// Abrupt death: membership and the HTTP surface vanish together.
		// The node's pool keeps running its work (a real crashed host's
		// results just never come back); the coordinator notices the
		// silence, declares the node dead, and requeues its runs.
		if n.killed {
			return nil
		}
		n.killed = true
		n.stopAgent()
		n.hsrv.CloseClientConnections()
		n.hsrv.Close()
		return nil
	case "cordon":
		_, err := t.cli.CordonNode(context.Background(), n.id)
		return err
	case "drain":
		n.stopAgent()
		_, err := t.cli.DrainNode(context.Background(), n.id)
		return err
	}
	return fmt.Errorf("unknown node event %q", kind)
}

// coordEvent kills or restarts a durable fleet's coordinator. A kill is
// abrupt: open connections are cut and the store handle dies with the
// process stand-in, leaving only the synced journal on disk. A restart
// reopens the journal, rebinds the same address, and serves — the new
// coordinator rehydrates its routing table before its listener accepts, and
// reconciles with each node as its agent's next heartbeat 404s it into
// re-registering.
func (t *fleetTarget) coordEvent(kind string) error {
	switch kind {
	case "kill":
		if t.st == nil {
			return fmt.Errorf("kill_coordinator: fleet is not durable")
		}
		if t.coordDown {
			return fmt.Errorf("kill_coordinator: the coordinator is already down")
		}
		t.coordSrv.CloseClientConnections()
		t.coordSrv.Close()
		t.coord.Close()
		if err := t.st.Close(); err != nil {
			return fmt.Errorf("kill_coordinator: %w", err)
		}
		t.hc.CloseIdleConnections()
		t.coordDown = true
		return nil
	case "restart":
		if !t.coordDown {
			return fmt.Errorf("restart_coordinator: the coordinator is not down")
		}
		st, err := store.Open(t.storeDir, store.Options{SyncInterval: -1})
		if err != nil {
			return fmt.Errorf("restart_coordinator: %w", err)
		}
		cfg := t.coordCfg
		cfg.Store = st
		coord, err := fleet.NewCoordinator(cfg)
		if err != nil {
			st.Close()
			return fmt.Errorf("restart_coordinator: %w", err)
		}
		l, err := listenAt(t.coordAddr)
		if err != nil {
			coord.Close()
			st.Close()
			return fmt.Errorf("restart_coordinator: %w", err)
		}
		srv := &httptest.Server{Listener: l, Config: &http.Server{Handler: coord}}
		srv.Start()
		t.st, t.coord, t.coordSrv = st, coord, srv
		t.coordDown = false
		return nil
	}
	return fmt.Errorf("unknown coordinator event %q", kind)
}

// listenAt rebinds a just-released address, retrying while the kernel
// finishes tearing the old listener down.
func listenAt(addr string) (net.Listener, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rebind %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *fleetTarget) submitSweep(spec *SubmitSweepEvent) (string, error) {
	res, err := t.cli.SubmitSweep(context.Background(), client.SubmitSweepRequest{SweepSpec: spec.SweepSpec})
	if err != nil {
		return "", err
	}
	t.sweepIDs = append(t.sweepIDs, res.ID)
	return res.ID, nil
}

func sweepStatusOf(v client.SweepView) sweepStatus {
	return sweepStatus{state: v.State, done: v.Done, total: v.Total, cells: v.Cells}
}

func (t *fleetTarget) sweepStatus(id string) (sweepStatus, error) {
	if t.settled {
		st, ok := t.frozenSweeps[id]
		if !ok {
			return sweepStatus{}, fmt.Errorf("sweep %s was not frozen at settle", id)
		}
		return st, nil
	}
	v, err := t.cli.Sweep(context.Background(), id)
	if err != nil {
		return sweepStatus{}, err
	}
	return sweepStatusOf(v), nil
}

// nodeState reports a node's live state by registration index: the ledger
// entry for the agent's current incarnation.
func (t *fleetTarget) nodeState(i int) (string, error) {
	n, err := t.node(i)
	if err != nil {
		return "", err
	}
	id := n.agent.ID()
	ctx := context.Background()
	opts := client.ListOptions{}
	for {
		page, err := t.cli.Nodes(ctx, opts)
		if err != nil {
			return "", err
		}
		for _, v := range page.Nodes {
			if v.ID == id {
				return v.State, nil
			}
		}
		if page.NextCursor == "" {
			return "", fmt.Errorf("node %s is not in the coordinator's ledger", id)
		}
		opts.Cursor = page.NextCursor
	}
}

func (t *fleetTarget) settle(ctx context.Context, ids []string) error {
	drainErr := t.coord.Drain(ctx)
	if drainErr == nil {
		for _, id := range ids {
			v, err := t.cli.Run(ctx, id)
			if err != nil {
				drainErr = fmt.Errorf("freeze run %s: %w", id, err)
				break
			}
			t.frozenRuns[id] = runStatusOf(v)
		}
	}
	if drainErr == nil {
		for _, id := range t.sweepIDs {
			v, err := t.cli.Sweep(ctx, id)
			if err != nil {
				drainErr = fmt.Errorf("freeze sweep %s: %w", id, err)
				break
			}
			t.frozenSweeps[id] = sweepStatusOf(v)
		}
	}
	if drainErr == nil {
		drainErr = t.freezeNodes(ctx)
	}
	t.teardown(ctx)
	t.settled = true
	return drainErr
}

// freezeNodes snapshots every node's final state, ascending by node ID
// (registration order) regardless of the API's newest-first pages.
func (t *fleetTarget) freezeNodes(ctx context.Context) error {
	var views []client.NodeView
	opts := client.ListOptions{}
	for {
		page, err := t.cli.Nodes(ctx, opts)
		if err != nil {
			return fmt.Errorf("freeze nodes: %w", err)
		}
		views = append(views, page.Nodes...)
		if page.NextCursor == "" {
			break
		}
		opts.Cursor = page.NextCursor
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	for _, v := range views {
		t.frozenNodes = append(t.frozenNodes, v.State)
	}
	return nil
}

// teardown releases everything the target started, in dependency order:
// membership agents, the coordinator (traffic source), then each node's
// HTTP surface and pool. Abandoned work on killed nodes finishes here, so a
// no_leaks assertion evaluated afterwards sees a quiet process.
func (t *fleetTarget) teardown(ctx context.Context) {
	for _, n := range t.nodes {
		n.stopAgent()
	}
	if !t.coordDown {
		t.coordSrv.Close()
		t.coord.Close()
		if t.st != nil {
			t.st.Close()
		}
	}
	for _, n := range t.nodes {
		if !n.killed {
			n.hsrv.Close()
		}
		n.pool.Drain(ctx)
	}
	t.hc.CloseIdleConnections()
	if t.storeDir != "" {
		os.RemoveAll(t.storeDir)
	}
}

func (t *fleetTarget) metric(name, label string) (float64, bool) {
	if v, ok := t.coord.Metrics().Value(name, label); ok {
		return v, true
	}
	var sum float64
	found := false
	for _, n := range t.nodes {
		if v, ok := n.pool.Metrics().Value(name, label); ok {
			sum += v
			found = true
		}
	}
	return sum, found
}

func (t *fleetTarget) injected(site faults.Site) int {
	got := t.coordInj.Injected(site)
	for _, n := range t.nodes {
		got += n.inj.Injected(site)
	}
	return got
}

func (t *fleetTarget) nodeStates() []string { return t.frozenNodes }
