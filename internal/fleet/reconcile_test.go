package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

// TestReconcileVerdict enumerates the reconcile state machine's single
// decision point: what a returning node's answer (or silence) means for a
// run the recovered routing table attributes to it.
func TestReconcileVerdict(t *testing.T) {
	view := func(state string) *client.RunView { return &client.RunView{State: state} }
	cases := []struct {
		name string
		view *client.RunView
		want reconcileVerdict
	}{
		{"node has no record", nil, verdictRequeue},
		{"node reports queued", view("queued"), verdictResume},
		{"node reports running", view("running"), verdictResume},
		{"node reports done", view("done"), verdictAdopt},
		{"node reports failed", view("failed"), verdictAdopt},
		{"node reports canceled", view("canceled"), verdictAdopt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := reconcileVerdictFor(tc.view); got != tc.want {
				t.Errorf("reconcileVerdictFor = %s, want %s", got, tc.want)
			}
		})
	}
	// The String form is what the logs print; pin all three.
	for v, want := range map[reconcileVerdict]string{
		verdictRequeue: "requeue", verdictAdopt: "adopt", verdictResume: "resume",
	} {
		if v.String() != want {
			t.Errorf("verdict %d String = %q, want %q", v, v.String(), want)
		}
	}
}

// patientHealth keeps heartbeats fast but gives returning nodes a generous
// window before liveness rules on them — for the never-return cases, where
// the survivor must have re-registered before requeue fires.
var patientHealth = HealthConfig{
	HeartbeatInterval: 30 * time.Millisecond,
	UnhealthyAfter:    300 * time.Millisecond,
	DeadAfter:         900 * time.Millisecond,
}

// stalledFirstNodeConfig gives node 0 a simulation that stalls 1.5 s before
// delegating to the instant test simulator; other nodes are instant.
func stalledFirstNodeConfig() func(i int) runqueue.Config {
	return func(i int) runqueue.Config {
		if i != 0 {
			return fastNodeConfig(i)
		}
		return stalledNodeConfig(i)
	}
}

// stalledNodeConfig gives a node a simulation that stalls 1.5 s before
// delegating to the instant test simulator.
func stalledNodeConfig(i int) runqueue.Config {
	cfg := fastNodeConfig(i)
	inner := cfg.Simulate
	cfg.Simulate = func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		select {
		case <-time.After(1500 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return inner(ctx, spec)
	}
	return cfg
}

// --- reconcile state machine, end to end --------------------------------
//
// Each test below is one row of the node-return × run-state matrix: the
// coordinator is killed with a run in a known state, restarted, and the
// run's exact terminal outcome asserted.

// eachReconcileDelay runs test twice: with the returning node answering
// reconcile at once, and with its answer held back 100 ms — past
// fastHealth's UnhealthyAfter (90 ms), short of its DeadAfter (180 ms). A
// returning node must not report healthy before its reconcile commits, and
// must not go unhealthy while its agent waits on registration.
func eachReconcileDelay(t *testing.T, test func(t *testing.T, delay time.Duration)) {
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{{"prompt", 0}, {"slow_answer", 100 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) { test(t, tc.delay) })
	}
}

// TestReconcileAdoptsCompleted: node returns holding a terminal result →
// the coordinator adopts it verbatim, byte for byte, with no re-placement.
func TestReconcileAdoptsCompleted(t *testing.T) {
	eachReconcileDelay(t, testReconcileAdoptsCompleted)
}

func testReconcileAdoptsCompleted(t *testing.T, delay time.Duration) {
	f := startDurableFleetH(t, 1, fastHealth, delay, fastNodeConfig)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 11},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	before, err := f.cli.WaitRun(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}

	f.c.Kill()
	f.restartCoordinator()
	f.waitHealthy(ctx, 1)

	after, err := f.cli.Run(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != "done" {
		t.Fatalf("recovered run state = %s, want done", after.State)
	}
	if !bytes.Equal(before.Result, after.Result) {
		t.Errorf("adopted result differs:\nbefore %s\nafter  %s", before.Result, after.Result)
	}
	if got := f.metric(ctx, "pdpad_fleet_reconciled_runs_total"); got < 1 {
		t.Errorf("reconciled_runs_total = %v, want >= 1", got)
	}
	if got := f.metric(ctx, "pdpad_fleet_adopted_results_total"); got < 1 {
		t.Errorf("adopted_results_total = %v, want >= 1", got)
	}
	if got := f.metric(ctx, "pdpad_fleet_requeues_total"); got != 0 {
		t.Errorf("requeues_total = %v, want 0", got)
	}
}

// TestReconcileResumesRunning: node returns still working on the run → the
// coordinator follows it to completion in place, no requeue.
func TestReconcileResumesRunning(t *testing.T) {
	f := startDurableFleet(t, 1, stalledFirstNodeConfig())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 12},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}

	f.c.Kill()
	f.restartCoordinator()
	f.waitHealthy(ctx, 1)

	v, err := f.cli.WaitRun(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("resumed run state = %s (%s), want done", v.State, v.Error)
	}
	if got := f.metric(ctx, "pdpad_fleet_reconciled_runs_total"); got < 1 {
		t.Errorf("reconciled_runs_total = %v, want >= 1", got)
	}
	if got := f.metric(ctx, "pdpad_fleet_requeues_total"); got != 0 {
		t.Errorf("requeues_total = %v, want 0 (the run never left its node)", got)
	}
}

// TestReconcileRequeuesUnknown: the node returns but has no record of the
// run (its process restarted across the outage) → requeue, which may land
// on the very node that forgot it, and the run still completes.
func TestReconcileRequeuesUnknown(t *testing.T) {
	eachReconcileDelay(t, testReconcileRequeuesUnknown)
}

func testReconcileRequeuesUnknown(t *testing.T, delay time.Duration) {
	f := startDurableFleetH(t, 1, fastHealth, delay, stalledFirstNodeConfig())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 13},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the coordinator AND restart the node with a fresh pool at the
	// same address: the new node process has no record of the run.
	f.c.Kill()
	f.nodes[0].Kill()
	f.restartCoordinator()
	if err := f.nodes[0].Restart(); err != nil {
		t.Fatal(err)
	}
	f.waitHealthy(ctx, 1)

	v, err := f.cli.WaitRun(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("requeued run state = %s (%s), want done", v.State, v.Error)
	}
	if got := f.metric(ctx, "pdpad_fleet_requeues_total"); got < 1 {
		t.Errorf("requeues_total = %v, want >= 1", got)
	}
}

// TestReconcileRequeuesNeverReturning: the owning node never comes back →
// liveness declares it dead and the run requeues onto the survivor.
func TestReconcileRequeuesNeverReturning(t *testing.T) {
	f := startDurableFleetH(t, 2, patientHealth, 0, stalledFirstNodeConfig())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Round-robin: the first submission lands on node 0, which stalls it.
	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 21},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}

	f.c.Kill()
	f.nodes[0].Kill() // gone for good
	f.restartCoordinator()

	v, err := f.cli.WaitRun(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("run after permanent node loss = %s (%s), want done on the survivor", v.State, v.Error)
	}
	if got := f.metric(ctx, "pdpad_fleet_node_deaths_total"); got < 1 {
		t.Errorf("node_deaths_total = %v, want >= 1", got)
	}
	if got := f.metric(ctx, "pdpad_fleet_requeues_total"); got < 1 {
		t.Errorf("requeues_total = %v, want >= 1", got)
	}
}

// TestReconcileStaleRevision: the returning node speaks an old wire
// revision → registration is refused with the typed code, it can never
// rejoin, and liveness eventually requeues its runs to the survivor.
func TestReconcileStaleRevision(t *testing.T) {
	f := startDurableFleetH(t, 2, patientHealth, 0, stalledFirstNodeConfig())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 31},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}

	f.c.Kill()
	// Stop node 0's real agent: the only "return" it makes is a stale one.
	f.nodes[0].agent.Stop()
	f.restartCoordinator()

	var resp client.NodeRegisterResponse
	err = f.cli.Do(ctx, http.MethodPost, "/v1/nodes/register", client.NodeRegisterRequest{
		Addr:        f.nodes[0].URL(),
		APIRevision: server.APIRevision + 1,
	}, &resp)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Code != server.CodeIncompatibleRevision {
		t.Fatalf("stale-revision register: err = %v, want %s", err, server.CodeIncompatibleRevision)
	}

	v, err := f.cli.WaitRun(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("run after stale-revision node = %s (%s), want done on the survivor", v.State, v.Error)
	}
	if got := f.metric(ctx, "pdpad_fleet_requeues_total"); got < 1 {
		t.Errorf("requeues_total = %v, want >= 1", got)
	}
}

// TestRestartedCoordinatorLeavesUnreturnedNodesAlone: after a restart, a
// node that has not re-registered may have come back as a new process that
// reuses the old run IDs for different runs. Cancelling a recovered sweep
// or run, or draining that node, must therefore send nothing to its old
// address until the node re-registers and reconciles.
func TestRestartedCoordinatorLeavesUnreturnedNodesAlone(t *testing.T) {
	slow := HealthConfig{HeartbeatInterval: 30 * time.Millisecond, UnhealthyAfter: 10 * time.Second, DeadAfter: 20 * time.Second}
	f := startDurableFleetH(t, 1, slow, 0, stalledFirstNodeConfig())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sub, err := f.cli.SubmitSweep(ctx, testSweep())
	if err != nil {
		t.Fatal(err)
	}
	// Let the node take every event stream the first coordinator opened: a
	// request it sent before dying but the node reads only later is not the
	// restarted coordinator's, and must not be counted against it.
	deadline := time.Now().Add(10 * time.Second)
	for f.follows.Load() < int64(len(sub.RunIDs)) {
		if time.Now().After(deadline) {
			t.Fatalf("node got %d event streams, want %d", f.follows.Load(), len(sub.RunIDs))
		}
		time.Sleep(time.Millisecond)
	}

	// The coordinator dies; the node stops heartbeating, and whatever now
	// answers at its address counts every request it gets.
	f.c.Kill()
	f.nodes[0].agent.Stop()
	var hits atomic.Int64
	answer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		t.Logf("old node address got %s %s", r.Method, r.URL.Path)
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound, errors.New("no such run"))
	})
	f.intercept.Store(&answer)
	f.restartCoordinator()

	if _, err := f.cli.CancelSweep(ctx, sub.ID); err != nil {
		t.Fatalf("cancel recovered sweep: %v", err)
	}
	if _, err := f.cli.CancelRun(ctx, sub.RunIDs[0]); err != nil {
		t.Fatalf("cancel recovered run: %v", err)
	}
	if _, err := f.cli.DrainNode(ctx, "node-001"); err != nil {
		t.Fatalf("drain unreturned node: %v", err)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("old node address received %d requests, want 0", n)
	}
}
