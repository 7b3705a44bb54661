package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/leakcheck"
	"pdpasim/internal/obs"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

func TestHealthConfigDefaults(t *testing.T) {
	h := HealthConfig{}.withDefaults()
	if h.HeartbeatInterval != 2*time.Second {
		t.Fatalf("interval = %v, want 2s", h.HeartbeatInterval)
	}
	if h.UnhealthyAfter != 6*time.Second {
		t.Fatalf("unhealthy = %v, want 6s", h.UnhealthyAfter)
	}
	if h.DeadAfter != 12*time.Second {
		t.Fatalf("dead = %v, want 12s", h.DeadAfter)
	}
	// Inverted bounds are repaired, never accepted.
	h = HealthConfig{HeartbeatInterval: time.Second, UnhealthyAfter: time.Millisecond, DeadAfter: time.Microsecond}.withDefaults()
	if h.UnhealthyAfter < h.HeartbeatInterval || h.DeadAfter < h.UnhealthyAfter {
		t.Fatalf("withDefaults left inverted bounds: %+v", h)
	}
}

func TestLivenessStateMachine(t *testing.T) {
	h := HealthConfig{HeartbeatInterval: 2 * time.Second}.withDefaults() // unhealthy 6s, dead 12s
	cases := []struct {
		silence time.Duration
		want    NodeState
	}{
		{0, StateHealthy},
		{time.Second, StateHealthy},
		{6*time.Second - time.Nanosecond, StateHealthy},
		{6 * time.Second, StateUnhealthy},
		{10 * time.Second, StateUnhealthy},
		{12*time.Second - time.Nanosecond, StateUnhealthy},
		{12 * time.Second, StateDrained},
		{time.Hour, StateDrained},
	}
	for _, tc := range cases {
		if got := h.Liveness(tc.silence); got != tc.want {
			t.Errorf("Liveness(%v) = %s, want %s", tc.silence, got, tc.want)
		}
	}
}

func TestCombineState(t *testing.T) {
	cases := []struct {
		live              NodeState
		cordoned, drained bool
		want              NodeState
	}{
		{StateHealthy, false, false, StateHealthy},
		{StateHealthy, true, false, StateCordoned},
		{StateHealthy, false, true, StateDrained},
		{StateHealthy, true, true, StateDrained},
		{StateUnhealthy, false, false, StateUnhealthy},
		{StateUnhealthy, true, false, StateUnhealthy}, // liveness outranks cordon
		{StateUnhealthy, false, true, StateDrained},
		{StateDrained, false, false, StateDrained},
		{StateDrained, true, false, StateDrained},
	}
	for _, tc := range cases {
		if got := CombineState(tc.live, tc.cordoned, tc.drained); got != tc.want {
			t.Errorf("CombineState(%s, cordoned=%v, drained=%v) = %s, want %s",
				tc.live, tc.cordoned, tc.drained, got, tc.want)
		}
	}
}

func TestParsePlacement(t *testing.T) {
	for _, ok := range []string{"", "round_robin", "least_loaded", "lpt"} {
		if _, err := ParsePlacement(ok); err != nil {
			t.Errorf("ParsePlacement(%q): %v", ok, err)
		}
	}
	if _, err := ParsePlacement("coordinated"); err == nil {
		t.Error("ParsePlacement accepted an unknown strategy")
	}
}

// --- in-process fleet harness -------------------------------------------

// fastHealth keeps fleet tests snappy: unhealthy after 90ms, dead at 180ms.
var fastHealth = HealthConfig{HeartbeatInterval: 30 * time.Millisecond}

// testFleet is a coordinator daemon c and its node daemons, each assembled
// by StartDaemon as pdpad assembles them. A durable fleet's coordinator can
// be killed (c.Kill) and restarted on the same store and address with the
// nodes surviving the outage: the in-process double of the fleetsmoke kill
// -9 leg.
type testFleet struct {
	t     *testing.T
	c     *Daemon
	cli   *client.Client
	nodes []*Daemon
	// reconcileDelay holds back every node's POST /v1/runs/reconcile
	// answer (nodeHandler).
	reconcileDelay time.Duration
	// holdSubmit, when set, runs before any node answers POST /v1/runs;
	// intercept, when set, answers every node request in the pool's place
	// (nodeHandler).
	holdSubmit atomic.Pointer[func()]
	intercept  atomic.Pointer[http.HandlerFunc]
	// follows counts the run event streams (GET /v1/runs/{id}/events) the
	// nodes have been asked for, intercepted or not (nodeHandler).
	follows atomic.Int64
}

// startFleet boots a coordinator plus n nodes and waits for every node to
// register. cfgFor customizes each node's pool (nil = defaults).
func startFleet(t *testing.T, n int, placement Placement, cfgFor func(i int) runqueue.Config) *testFleet {
	return launchFleet(t, Config{Placement: placement, Health: fastHealth}, "", 0, n, cfgFor)
}

func startDurableFleet(t *testing.T, n int, cfgFor func(i int) runqueue.Config) *testFleet {
	return startDurableFleetH(t, n, fastHealth, 0, cfgFor)
}

func startDurableFleetH(t *testing.T, n int, health HealthConfig, reconcileDelay time.Duration, cfgFor func(i int) runqueue.Config) *testFleet {
	return launchFleet(t, Config{Health: health}, t.TempDir(), reconcileDelay, n, cfgFor)
}

// launchFleet starts a coordinator from coord, journaling to storeDir when
// it is set, then n nodes one at a time, each registered before the next.
func launchFleet(t *testing.T, coord Config, storeDir string, reconcileDelay time.Duration, n int, cfgFor func(i int) runqueue.Config) *testFleet {
	t.Helper()
	coord.Logf = t.Logf
	c, err := StartDaemon(DaemonConfig{Addr: "127.0.0.1:0", StoreDir: storeDir, StoreSync: -1, Coordinator: &coord})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{t: t, c: c, cli: client.New(c.URL()), reconcileDelay: reconcileDelay}
	t.Cleanup(f.shutdown)
	for i := 0; i < n; i++ {
		cfg := runqueue.Config{}
		if cfgFor != nil {
			cfg = cfgFor(i)
		}
		d, err := StartDaemon(DaemonConfig{
			Addr: "127.0.0.1:0", Pool: cfg, Join: c.URL(), Name: fmt.Sprintf("n%d", i), Logf: t.Logf, Wrap: f.nodeHandler,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, d)
		select {
		case <-d.agent.Registered():
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d never registered", i)
		}
	}
	return f
}

// nodeHandler wraps a node daemon's v1 surface with the fleet's test
// hooks: intercept, reconcileDelay and holdSubmit.
func (f *testFleet) nodeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events") {
			f.follows.Add(1)
		}
		if answer := f.intercept.Load(); answer != nil {
			(*answer)(w, r)
			return
		}
		if r.Method == http.MethodPost {
			switch r.URL.Path {
			case "/v1/runs/reconcile":
				time.Sleep(f.reconcileDelay)
			case "/v1/runs":
				if hold := f.holdSubmit.Load(); hold != nil {
					(*hold)()
				}
			}
		}
		h.ServeHTTP(w, r)
	})
}

// restartCoordinator brings the killed coordinator back from the same
// store at the same address, as a supervisor would after a crash.
func (f *testFleet) restartCoordinator() {
	f.t.Helper()
	if err := f.c.Restart(); err != nil {
		f.t.Fatal(err)
	}
	f.cli.CloseIdleConnections()
}

// waitHealthy polls until want nodes report healthy (agents re-registered
// and reconciled after a restart).
func (f *testFleet) waitHealthy(ctx context.Context, want int) {
	f.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		page, err := f.cli.Nodes(ctx, client.ListOptions{})
		healthy := 0
		if err == nil {
			for _, nv := range page.Nodes {
				if nv.State == string(StateHealthy) {
					healthy++
				}
			}
			if healthy >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("fleet never reached %d healthy nodes (last: %d, err %v)", want, healthy, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (f *testFleet) metric(ctx context.Context, name string) float64 {
	f.t.Helper()
	met, err := f.cli.Metrics(ctx)
	if err != nil {
		f.t.Fatal(err)
	}
	return met[name]
}

// shutdown stops the traffic sources first (every agent, then the
// coordinator), then drains and closes each node, where a killed node's
// work finishes.
func (f *testFleet) shutdown() {
	for _, n := range f.nodes {
		n.agent.Stop()
	}
	f.c.Kill()
	for _, n := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		n.Drain(ctx)
		cancel()
		n.Close()
	}
	f.cli.CloseIdleConnections()
}

// testSweep is the grid used for the byte-identity contract: two policies,
// two seeds, small enough to simulate quickly but aggregated over real runs.
func testSweep() client.SubmitSweepRequest {
	return client.SubmitSweepRequest{SweepSpec: client.SweepSpec{
		Policies: []string{"equip", "gang"},
		Mixes:    []string{"w1"},
		Loads:    []float64{0.5},
		Seeds:    []int64{1, 2},
		NCPU:     32,
		WindowS:  30,
	}}
}

// standaloneCells runs the sweep on a plain single-node daemon and returns
// the cells JSON — the reference bytes fleets must reproduce.
func standaloneCells(t *testing.T) []byte {
	t.Helper()
	d, err := StartDaemon(DaemonConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	cli := client.New(d.URL())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		d.Drain(ctx)
		cancel()
		d.Close()
		cli.CloseIdleConnections()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sub, err := cli.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	v, err := cli.WaitSweep(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("standalone sweep state = %s, errors %v", v.State, v.Errors)
	}
	return v.Cells
}

// TestFleetSweepByteIdentical is the PR's acceptance contract: a sweep
// sharded across any number of nodes under any placement strategy yields
// cells byte-identical to the same sweep on a single standalone daemon.
func TestFleetSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	want := standaloneCells(t)
	if len(want) == 0 {
		t.Fatal("standalone sweep produced no cells")
	}
	for _, placement := range []Placement{PlaceRoundRobin, PlaceLeastLoaded, PlaceLPT} {
		for _, nodes := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/%dnode", placement, nodes), func(t *testing.T) {
				f := startFleet(t, nodes, placement, nil)
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				sub, err := f.cli.SubmitSweep(ctx, testSweep())
				if err != nil {
					t.Fatal(err)
				}
				v, err := f.cli.WaitSweep(ctx, sub.ID, 0)
				if err != nil {
					t.Fatal(err)
				}
				if v.State != "done" {
					t.Fatalf("fleet sweep state = %s, errors %v", v.State, v.Errors)
				}
				if !bytes.Equal(v.Cells, want) {
					t.Errorf("fleet cells differ from standalone:\nfleet: %s\nwant:  %s", v.Cells, want)
				}
			})
		}
	}
}

// TestFleetNodeDeathMidSweep kills a node while its members are in flight:
// the coordinator must requeue them onto the survivor and the finished
// sweep's cells must still be byte-identical to the standalone reference.
func TestFleetNodeDeathMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	defer leakcheck.Check(t)
	want := standaloneCells(t)

	// Node 0 stalls every simulation long enough for the kill to land while
	// its members are running; node 1 simulates normally.
	var stall atomic.Bool
	stall.Store(true)
	real := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		ws, opts := spec.Facade()
		return pdpasim.RunContext(ctx, ws, opts)
	}
	f := startFleet(t, 2, PlaceRoundRobin, func(i int) runqueue.Config {
		if i != 0 {
			return runqueue.Config{}
		}
		return runqueue.Config{Simulate: func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			if stall.Load() {
				select {
				case <-time.After(2 * time.Second):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return real(ctx, spec)
		}}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	sub, err := f.cli.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin over two nodes put half the members on the doomed node.
	f.nodes[0].Kill()
	v, err := f.cli.WaitSweep(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("sweep state after node death = %s, errors %v", v.State, v.Errors)
	}
	if !bytes.Equal(v.Cells, want) {
		t.Errorf("cells after node death differ from standalone:\nfleet: %s\nwant:  %s", v.Cells, want)
	}
	met, err := f.cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if met["pdpad_fleet_node_deaths_total"] < 1 {
		t.Errorf("node_deaths_total = %v, want >= 1", met["pdpad_fleet_node_deaths_total"])
	}
	if met["pdpad_fleet_requeues_total"] < 1 {
		t.Errorf("requeues_total = %v, want >= 1", met["pdpad_fleet_requeues_total"])
	}
	f.shutdown()
}

// TestFleetRunProxy exercises the proxied run plane end to end: submit,
// dedup, wait, list, events.
func TestFleetRunProxy(t *testing.T) {
	f := startFleet(t, 2, PlaceLeastLoaded, fastNodeConfig)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	req := client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Load: 0.6, WindowS: 60, Seed: 7},
		Options:  client.RunOptions{Policy: "equip"},
	}
	sub, err := f.cli.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "run-000001" {
		t.Errorf("coordinator run ID = %q, want run-000001", sub.ID)
	}
	v, err := f.cli.WaitRun(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" || len(v.Result) == 0 {
		t.Fatalf("run state = %s, result bytes = %d", v.State, len(v.Result))
	}

	// Identical resubmission resolves fleet-side without a fresh placement.
	again, err := f.cli.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != sub.ID || !again.CacheHit {
		t.Errorf("resubmit = %+v, want same ID with cache_hit", again)
	}

	page, err := f.cli.Runs(ctx, client.ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Runs) != 1 || page.Runs[0].ID != sub.ID {
		t.Errorf("run list = %+v, want exactly %s", page.Runs, sub.ID)
	}

	var states []string
	err = f.cli.FollowRun(ctx, sub.ID, func(ev client.Event) bool {
		if ev.RunID != sub.ID {
			t.Errorf("event run_id = %q, want %q", ev.RunID, sub.ID)
		}
		states = append(states, ev.State)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != "done" {
		t.Errorf("event states = %v, want trailing done", states)
	}
}

// TestCoordinatorCountsRepeats: the coordinator answers repeats from its
// own run ledger, so it counts them in the pool's series — a join of a
// pending run in pdpad_dedup_hits_total, a done run's cache hit in
// pdpad_cache_hits_total — and the node, which never sees them, counts
// none.
func TestCoordinatorCountsRepeats(t *testing.T) {
	release := make(chan struct{})
	f := startFleet(t, 1, PlaceRoundRobin, func(i int) runqueue.Config {
		cfg := fastNodeConfig(i)
		fast := cfg.Simulate
		cfg.Simulate = func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			<-release
			return fast(ctx, spec)
		}
		return cfg
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 7},
		Options:  client.RunOptions{Policy: "equip"},
	}
	submit := func(want func(client.SubmitResult) bool) client.SubmitResult {
		t.Helper()
		res, err := f.cli.SubmitRun(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !want(res) {
			t.Fatalf("submit answered %+v", res)
		}
		return res
	}
	first := submit(func(r client.SubmitResult) bool { return !r.CacheHit && !r.Deduped })
	submit(func(r client.SubmitResult) bool { return r.Deduped && r.ID == first.ID })
	close(release)
	if v, err := f.cli.WaitRun(ctx, first.ID, 0); err != nil || v.State != "done" {
		t.Fatalf("run %s: view %+v err %v", first.ID, v, err)
	}
	submit(func(r client.SubmitResult) bool { return r.CacheHit && r.ID == first.ID && r.State == "done" })
	for _, c := range []struct {
		reg          *obs.Registry
		hits, dedups float64
	}{{f.c.coord.Metrics(), 1, 1}, {f.nodes[0].pool.Metrics(), 0, 0}} {
		hits, _ := c.reg.Value("pdpad_cache_hits_total", "")
		dedups, _ := c.reg.Value("pdpad_dedup_hits_total", "")
		if hits != c.hits || dedups != c.dedups {
			t.Errorf("cache hits %v, dedup hits %v; want %v and %v", hits, dedups, c.hits, c.dedups)
		}
	}
}

// fastNodeConfig makes node pools simulate instantly for control-plane
// tests that don't care about real results.
func fastNodeConfig(int) runqueue.Config {
	return runqueue.Config{
		Warmup: time.Millisecond,
		Simulate: func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			ws := pdpasim.WorkloadSpec{Mix: spec.Workload.Mix, Load: 0.2, NCPU: 8,
				Window: 5 * time.Second, Seed: spec.Workload.Seed}
			return pdpasim.RunContext(ctx, ws, pdpasim.Options{Policy: pdpasim.Equipartition})
		},
	}
}

// TestCordonStopsPlacements cordons the only node: running work finishes,
// new submissions are refused with no_healthy_nodes, uncordon restores.
func TestCordonStopsPlacements(t *testing.T) {
	f := startFleet(t, 1, PlaceRoundRobin, fastNodeConfig)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	page, err := f.cli.Nodes(ctx, client.ListOptions{})
	if err != nil || len(page.Nodes) != 1 {
		t.Fatalf("nodes = %+v, err %v", page.Nodes, err)
	}
	id := page.Nodes[0].ID
	nv, err := f.cli.CordonNode(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if nv.State != string(StateCordoned) || !nv.Cordoned {
		t.Fatalf("after cordon: %+v", nv)
	}
	_, err = f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 1},
		Options:  client.RunOptions{Policy: "equip"},
	})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Code != server.CodeNoHealthyNodes {
		t.Fatalf("submit on cordoned fleet: err = %v, want %s", err, server.CodeNoHealthyNodes)
	}
	if _, err := f.cli.UncordonNode(ctx, id); err != nil {
		t.Fatal(err)
	}
	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 1},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.cli.WaitRun(ctx, sub.ID, 0); err != nil || v.State != "done" {
		t.Fatalf("after uncordon: view %+v err %v", v, err)
	}
}

// assignedByName sums NodeView.Assigned over the nodes still in the fleet,
// keyed by node name (a name outlives a node's re-registrations).
func assignedByName(ctx context.Context, t *testing.T, cli *client.Client) map[string]int {
	t.Helper()
	page, err := cli.Nodes(ctx, client.ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, nv := range page.Nodes {
		if nv.State != string(StateDrained) {
			out[nv.Name] += nv.Assigned
		}
	}
	return out
}

// TestPlacementCountsPendingRuns pins load-based placement: a node's load
// is its runs that are not terminal yet. Every node stalls its runs, so the
// runs each holds stay pending while the test places more.
func TestPlacementCountsPendingRuns(t *testing.T) {
	submit := func(ctx context.Context, t *testing.T, cli *client.Client, seed int64, windowS float64) string {
		t.Helper()
		sub, err := cli.SubmitRun(ctx, client.SubmitRunRequest{
			Workload: client.Workload{Mix: "w1", Seed: seed, WindowS: windowS},
			Options:  client.RunOptions{Policy: "equip"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sub.ID
	}
	expect := func(ctx context.Context, t *testing.T, cli *client.Client, n0, n1 int) {
		t.Helper()
		if got := assignedByName(ctx, t, cli); got["n0"] != n0 || got["n1"] != n1 {
			t.Fatalf("assigned = %v, want n0:%d n1:%d", got, n0, n1)
		}
	}

	t.Run("least_loaded", func(t *testing.T) {
		f := startFleet(t, 2, PlaceLeastLoaded, stalledNodeConfig)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		// Tied at zero, the first run goes to node 0; the second goes to
		// node 1, which holds fewer pending runs.
		ids := []string{submit(ctx, t, f.cli, 1, 0), submit(ctx, t, f.cli, 2, 0)}
		expect(ctx, t, f.cli, 1, 1)
		for _, id := range ids {
			if v, err := f.cli.WaitRun(ctx, id, 0); err != nil || v.State != "done" {
				t.Fatalf("run %s: view %+v err %v", id, v, err)
			}
		}
		expect(ctx, t, f.cli, 0, 0)
	})

	t.Run("lpt", func(t *testing.T) {
		f := startFleet(t, 2, PlaceLPT, stalledNodeConfig)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		// Estimated costs 600 on node 0, then 60 on node 1. The heavier
		// third run goes to node 1, whose pending cost is smaller, though
		// both nodes hold one run (least_loaded and round_robin would pick
		// node 0).
		submit(ctx, t, f.cli, 1, 600)
		submit(ctx, t, f.cli, 2, 60)
		expect(ctx, t, f.cli, 1, 1)
		submit(ctx, t, f.cli, 3, 1200)
		expect(ctx, t, f.cli, 1, 2)
	})

	t.Run("after_restart", func(t *testing.T) {
		f := startDurableFleet(t, 1, stalledFirstNodeConfig())
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		id := submit(ctx, t, f.cli, 1, 0)
		expect(ctx, t, f.cli, 1, 0)
		f.c.Kill()
		f.restartCoordinator()
		// Rebuilt from the recovered ledger: first on the recovered node,
		// then on the incarnation that inherits the run.
		expect(ctx, t, f.cli, 1, 0)
		f.waitHealthy(ctx, 1)
		expect(ctx, t, f.cli, 1, 0)
		if v, err := f.cli.WaitRun(ctx, id, 0); err != nil || v.State != "done" {
			t.Fatalf("run %s: view %+v err %v", id, v, err)
		}
		expect(ctx, t, f.cli, 0, 0)
	})
}

// TestDrainNodeRequeues drains a busy node by hand: its in-flight run moves
// to the other node and completes.
func TestDrainNodeRequeues(t *testing.T) {
	var stall atomic.Bool
	stall.Store(true)
	f := startFleet(t, 2, PlaceRoundRobin, func(i int) runqueue.Config {
		cfg := fastNodeConfig(i)
		if i == 0 {
			inner := cfg.Simulate
			cfg.Simulate = func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
				if stall.Load() {
					select {
					case <-time.After(2 * time.Second):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				return inner(ctx, spec)
			}
		}
		return cfg
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Round-robin: first submission lands on node 0, which stalls it.
	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 3},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := f.cli.DrainNode(ctx, f.nodes[0].agent.ID())
	if err != nil {
		t.Fatal(err)
	}
	if nv.State != string(StateDrained) {
		t.Errorf("drained node state = %s", nv.State)
	}
	v, err := f.cli.WaitRun(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("run after drain = %s (%s)", v.State, v.Error)
	}
	met, err := f.cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if met["pdpad_fleet_requeues_total"] < 1 {
		t.Errorf("requeues_total = %v, want >= 1", met["pdpad_fleet_requeues_total"])
	}
}

// TestHeartbeatTimeoutDrainsNode stops a node's heartbeats and watches the
// coordinator walk it healthy → unhealthy → drained.
func TestHeartbeatTimeoutDrainsNode(t *testing.T) {
	f := startFleet(t, 2, PlaceRoundRobin, fastNodeConfig)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id := f.nodes[0].agent.ID()
	f.nodes[0].agent.Stop()

	sawUnhealthy := false
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("node %s never drained (unhealthy seen: %v)", id, sawUnhealthy)
		}
		page, err := f.cli.Nodes(ctx, client.ListOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var state string
		for _, n := range page.Nodes {
			if n.ID == id {
				state = n.State
			}
		}
		if state == string(StateUnhealthy) {
			sawUnhealthy = true
		}
		if state == string(StateDrained) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The survivor keeps the fleet serving.
	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 9},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.cli.WaitRun(ctx, sub.ID, 0); err != nil || v.State != "done" {
		t.Fatalf("survivor run: %+v err %v", v, err)
	}
}

// TestRegisterRevisionMismatch: a node speaking another API revision is
// refused with the typed envelope code.
func TestRegisterRevisionMismatch(t *testing.T) {
	f := startFleet(t, 0, PlaceRoundRobin, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var resp client.NodeRegisterResponse
	err := f.cli.Do(ctx, http.MethodPost, "/v1/nodes/register", client.NodeRegisterRequest{
		Addr:        "http://127.0.0.1:1",
		APIRevision: server.APIRevision + 1,
	}, &resp)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Code != server.CodeIncompatibleRevision || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("mismatched registration: err = %v, want 400 %s", err, server.CodeIncompatibleRevision)
	}
}

// TestCoordinatorVersion: the coordinator reports its role and revision.
func TestCoordinatorVersion(t *testing.T) {
	f := startFleet(t, 0, PlaceRoundRobin, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := f.cli.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Role != server.RoleCoordinator || v.APIRevision != server.APIRevision {
		t.Fatalf("version = %+v", v)
	}
}

// TestNoNodesRejectsSubmissions: an empty fleet refuses work with the
// typed no_healthy_nodes code rather than hanging.
func TestNoNodesRejectsSubmissions(t *testing.T) {
	f := startFleet(t, 0, PlaceRoundRobin, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1"},
		Options:  client.RunOptions{Policy: "equip"},
	})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Code != server.CodeNoHealthyNodes {
		t.Fatalf("submit on empty fleet: err = %v, want %s", err, server.CodeNoHealthyNodes)
	}
}
