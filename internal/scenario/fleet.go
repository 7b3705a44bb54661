package scenario

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/fleet"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

// fleetRig is the fleet-only part of a run: the node daemons that join the
// coordinator the runner's client talks to, and what the node and
// coordinator events need. Runs and sweeps go through the runner's client
// exactly as they do against a pool.
//
// Determinism: agents start one at a time, each waiting for registration, so
// the scenario's node index equals the coordinator's registration order
// (node-000, node-001, ...). Each node owns a seeded injector (master seed +
// node index) arming the scenario's global rules plus that node's
// node_faults; the coordinator's injector (master seed) arms the global
// rules for its own sites.
type fleetRig struct {
	coord *fleet.Coordinator
	nodes []*fleetNode

	// Durable-fleet state: the coordinator journals its routing table to
	// storeDir, and kill_coordinator / restart_coordinator cycle the
	// coordinator while keeping its address stable so node agents and the
	// client reconnect to the same base URL.
	coordCfg fleet.Config
	storeDir string
	st       *store.Store

	frozenNodes []string
}

// fleetNode is one node daemon: its pool's HTTP surface and membership
// agent (the pool itself is in runner.pools).
type fleetNode struct {
	hsrv  *httptest.Server
	agent *fleet.Agent
	id    string
}

// registerTimeout bounds each agent's first registration during startup.
const registerTimeout = 10 * time.Second

// startFleet serves the coordinator and joins the scenario's nodes to it.
func (r *runner) startFleet() error {
	f := r.s.Fleet
	coordInj := faults.New(r.s.Seed, r.s.Faults...)
	rig := &fleetRig{coordCfg: fleet.Config{
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
		Faults:     coordInj,
		HTTPClient: r.hc,
	}}
	if f.Durable {
		dir, err := os.MkdirTemp("", "pdpad-scenario-store-")
		if err != nil {
			return err
		}
		st, err := store.Open(dir, store.Options{SyncInterval: -1})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		rig.storeDir, rig.st, rig.coordCfg.Store = dir, st, st
	}
	coord, err := fleet.NewCoordinator(rig.coordCfg)
	if err != nil {
		if rig.st != nil {
			rig.st.Close()
			os.RemoveAll(rig.storeDir)
		}
		return err
	}
	rig.coord = coord
	r.fleet, r.backend, r.srv = rig, coord, httptest.NewServer(coord)
	r.injs = []*faults.Injector{coordInj}

	cfg := r.s.Pool.config()
	for i := 0; i < f.Nodes; i++ {
		rules := append([]faults.Rule(nil), r.s.Faults...)
		for _, nf := range f.NodeFaults {
			if nf.Node == i {
				rules = append(rules, nf.Rule)
			}
		}
		inj := faults.New(r.s.Seed+int64(i), rules...)
		pool, hsrv := r.servePool(r.s.Pool, inj, server.WithRole(server.RoleNode))
		agent := fleet.StartAgent(fleet.AgentConfig{
			Coordinator: r.srv.URL,
			Advertise:   hsrv.URL,
			Name:        fmt.Sprintf("n%d", i),
			BaseWorkers: cfg.BaseWorkers,
			MaxWorkers:  cfg.MaxWorkers,
			HTTPClient:  r.hc,
		}, pool)
		n := &fleetNode{hsrv: hsrv, agent: agent}
		rig.nodes = append(rig.nodes, n)
		r.pools = append(r.pools, pool)
		r.injs = append(r.injs, inj)
		select {
		case <-agent.Registered():
			n.id = agent.ID()
		case <-time.After(registerTimeout):
			r.teardown(context.Background())
			return fmt.Errorf("fleet: node %d did not register within %v", i, registerTimeout)
		}
	}
	return nil
}

// killNode is an abrupt death: membership and the HTTP surface vanish
// together. The node's pool keeps running its work (a real crashed host's
// results just never come back); the coordinator notices the silence,
// declares the node dead, and requeues its runs.
func (r *runner) killNode(i int) {
	n := r.fleet.nodes[i]
	n.agent.Stop()
	n.hsrv.CloseClientConnections()
	n.hsrv.Close()
}

func (r *runner) cordonNode(i int) error {
	_, err := r.cli.CordonNode(context.Background(), r.fleet.nodes[i].id)
	return err
}

// drainNode decommissions a node. Its agent stops first: a drained node
// that keeps heartbeating gets 404 and re-registers under a fresh ID, which
// would grow the node list.
func (r *runner) drainNode(i int) error {
	n := r.fleet.nodes[i]
	n.agent.Stop()
	_, err := r.cli.DrainNode(context.Background(), n.id)
	return err
}

// killCoordinator tears the coordinator down abruptly: open connections are
// cut and the store handle dies with the process stand-in, leaving only the
// synced journal on disk.
func (r *runner) killCoordinator() error {
	f := r.fleet
	r.srv.CloseClientConnections()
	r.srv.Close()
	f.coord.Close()
	if err := f.st.Close(); err != nil {
		return fmt.Errorf("kill_coordinator: %w", err)
	}
	r.hc.CloseIdleConnections()
	return nil
}

// restartCoordinator reopens the journal, rebinds the same address, and
// serves: the new coordinator rehydrates its routing table before its
// listener accepts, and reconciles with each node as its agent's next
// heartbeat 404s it into re-registering.
func (r *runner) restartCoordinator() error {
	f := r.fleet
	st, err := store.Open(f.storeDir, store.Options{SyncInterval: -1})
	if err != nil {
		return fmt.Errorf("restart_coordinator: %w", err)
	}
	cfg := f.coordCfg
	cfg.Store = st
	coord, err := fleet.NewCoordinator(cfg)
	if err != nil {
		st.Close()
		return fmt.Errorf("restart_coordinator: %w", err)
	}
	l, err := listenAt(r.srv.Listener.Addr().String())
	if err != nil {
		coord.Close()
		st.Close()
		return fmt.Errorf("restart_coordinator: %w", err)
	}
	srv := &httptest.Server{Listener: l, Config: &http.Server{Handler: coord}}
	srv.Start()
	f.st, f.coord = st, coord
	r.backend, r.srv = coord, srv
	return nil
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

// nodes lists the coordinator's node ledger, every page.
func (r *runner) nodes(ctx context.Context) ([]client.NodeView, error) {
	var views []client.NodeView
	opts := client.ListOptions{}
	for {
		page, err := r.cli.Nodes(ctx, opts)
		if err != nil {
			return nil, err
		}
		views = append(views, page.Nodes...)
		if page.NextCursor == "" {
			return views, nil
		}
		opts.Cursor = page.NextCursor
	}
}

// nodeState reports a node's live state by registration index: the ledger
// entry for the agent's current incarnation.
func (r *runner) nodeState(i int) (string, error) {
	id := r.fleet.nodes[i].agent.ID()
	views, err := r.nodes(context.Background())
	if err != nil {
		return "", err
	}
	for _, v := range views {
		if v.ID == id {
			return v.State, nil
		}
	}
	return "", fmt.Errorf("node %s is not in the coordinator's ledger", id)
}

func (r *runner) waitNode(e *WaitNodeEvent) error {
	deadline := time.Now().Add(waitTimeout)
	for {
		st, err := r.nodeState(e.Node)
		if err != nil {
			return fmt.Errorf("wait_node %d: %w", e.Node, err)
		}
		if st == e.State {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wait_node %d: not %s after %v (still %s)", e.Node, e.State, waitTimeout, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// freezeNodes snapshots every node's final state, ascending by node ID
// (registration order) regardless of the API's newest-first pages.
func (r *runner) freezeNodes(ctx context.Context) error {
	views, err := r.nodes(ctx)
	if err != nil {
		return fmt.Errorf("freeze nodes: %w", err)
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	for _, v := range views {
		r.fleet.frozenNodes = append(r.fleet.frozenNodes, v.State)
	}
	return nil
}

// stopFleet stops the traffic sources ahead of the pools' drain: every
// membership agent, the coordinator with its server and store, then each
// node's HTTP surface. Each step is idempotent, so killed nodes and a
// killed coordinator need no bookkeeping.
func (r *runner) stopFleet() {
	f := r.fleet
	for _, n := range f.nodes {
		n.agent.Stop()
	}
	r.srv.Close()
	f.coord.Close()
	if f.st != nil {
		f.st.Close()
	}
	for _, n := range f.nodes {
		n.hsrv.Close()
	}
	if f.storeDir != "" {
		os.RemoveAll(f.storeDir)
	}
}
