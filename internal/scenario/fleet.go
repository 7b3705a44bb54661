package scenario

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/fleet"
)

// startFleet serves the coordinator and joins the scenario's nodes to it;
// runs and sweeps then go through the runner's client exactly as they do
// against a pool.
//
// Determinism: agents start one at a time, each waiting for registration, so
// the scenario's node index equals the coordinator's registration order
// (node-000, node-001, ...). Each node owns a seeded injector (master seed +
// node index) arming the scenario's global rules plus that node's
// node_faults; the coordinator's injector (master seed) arms the global
// rules for its own sites.
func (r *runner) startFleet() error {
	f := r.s.Fleet
	coordInj := faults.New(r.s.Seed, r.s.Faults...)
	cfg := fleet.DaemonConfig{
		Addr:      "127.0.0.1:0",
		StoreSync: -1,
		Coordinator: &fleet.Config{
			Placement: fleet.Placement(f.Placement),
			Health: fleet.HealthConfig{
				HeartbeatInterval: f.Heartbeat,
				UnhealthyAfter:    f.UnhealthyAfter,
				DeadAfter:         f.DeadAfter,
			},
			Elastic: fleet.ElasticConfig{
				DrainIdleAfter: f.DrainIdleAfter,
				MinNodes:       f.MinNodes,
			},
			Faults:     coordInj,
			HTTPClient: r.hc,
		},
	}
	if f.Durable {
		dir, err := os.MkdirTemp("", "pdpad-scenario-store-")
		if err != nil {
			return err
		}
		r.storeDir, cfg.StoreDir = dir, dir
	}
	d, err := fleet.StartDaemon(cfg)
	if err != nil {
		os.RemoveAll(r.storeDir)
		return err
	}
	r.d, r.injs = d, []*faults.Injector{coordInj}

	for i := 0; i < f.Nodes; i++ {
		rules := append([]faults.Rule(nil), r.s.Faults...)
		for _, nf := range f.NodeFaults {
			if nf.Node == i {
				rules = append(rules, nf.Rule)
			}
		}
		inj := faults.New(r.s.Seed+int64(i), rules...)
		n, err := r.startPool(r.s.Pool, inj, d.URL(), fmt.Sprintf("n%d", i))
		if err != nil {
			r.teardown(context.Background())
			return err
		}
		r.nodes, r.injs = append(r.nodes, n), append(r.injs, inj)
		select {
		case <-n.Agent().Registered():
		case <-time.After(waitTimeout):
			r.teardown(context.Background())
			return fmt.Errorf("fleet: node %d did not register within %v", i, waitTimeout)
		}
	}
	return nil
}

// nodeViews lists the coordinator's node ledger, every page.
func (r *runner) nodeViews(ctx context.Context) ([]client.NodeView, error) {
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
	id := r.nodes[i].Agent().ID()
	views, err := r.nodeViews(context.Background())
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
	views, err := r.nodeViews(ctx)
	if err != nil {
		return fmt.Errorf("freeze nodes: %w", err)
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	for _, v := range views {
		r.frozenNodes = append(r.frozenNodes, v.State)
	}
	return nil
}
