package fleet

// How the coordinator learns that a run finished: each placement has a
// watcher on the node's event stream, which settles the run the moment the
// node reports it terminal. These tests pin that no client read is needed
// for it, and that the coordinator's own work outlives the request that
// started it.

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/leakcheck"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

// submitW1 submits a w1 run under seed through cli.
func submitW1(ctx context.Context, t *testing.T, cli *client.Client, seed int64) string {
	t.Helper()
	sub, err := cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: seed},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// waitPoolDone polls a node's own pool, never the coordinator, until it
// holds a run in state done.
func waitPoolDone(t *testing.T, pool *runqueue.Pool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, snap := range pool.Runs() {
			if snap.State == runqueue.Done {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("node pool never finished its run")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitAssigned polls GET /v1/nodes until the named node's assigned count is
// want or the wait runs out, and returns the last count seen.
func waitAssigned(ctx context.Context, t *testing.T, cli *client.Client, name string, want int, wait time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		got := assignedByName(ctx, t, cli)[name]
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSettleUnreadRun: a run nobody reads still stops counting as its
// node's load once the node finishes it, and its final record is
// journaled, without a single read of the run through the coordinator.
func TestSettleUnreadRun(t *testing.T) {
	f := startDurableFleet(t, 1, fastNodeConfig)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	id := submitW1(ctx, t, f.cli, 1)
	waitPoolDone(t, f.nodes[0].pool)
	if got := waitAssigned(ctx, t, f.cli, "n0", 0, 5*time.Second); got != 0 {
		t.Fatalf("node n0 reports assigned: %d after finishing the run, want 0", got)
	}

	f.c.Kill()
	st, err := store.Open(f.c.cfg.StoreDir, store.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, _ := recoverAll(st.TakeRecovered())
	for _, cr := range rec.runs {
		if cr.ID == id {
			if cr.Final == nil || cr.Final.State != "done" || len(cr.Final.Result) == 0 {
				t.Fatalf("journaled run %s: state %s, final %+v; want a done final view with its result", id, cr.State, cr.Final)
			}
			return
		}
	}
	t.Fatalf("run %s missing from the journal (%d runs)", id, len(rec.runs))
}

// TestSettleBeforeNodeDeath: a node that dies after finishing a run nobody
// read does not hand that run back: it is not requeued, the survivor never
// simulates it, and its result is served.
func TestSettleBeforeNodeDeath(t *testing.T) {
	f := startFleet(t, 2, PlaceRoundRobin, fastNodeConfig)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	id := submitW1(ctx, t, f.cli, 1) // round robin: node n0
	waitPoolDone(t, f.nodes[0].pool)
	waitAssigned(ctx, t, f.cli, "n0", 0, 2*time.Second)

	dead := f.nodes[0].agent.ID()
	f.nodes[0].Kill()
	deadline := time.Now().Add(10 * time.Second)
	for {
		page, err := f.cli.Nodes(ctx, client.ListOptions{State: string(StateDrained)})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Nodes) == 1 && page.Nodes[0].ID == dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never declared dead", dead)
		}
		time.Sleep(10 * time.Millisecond)
	}
	v, err := f.cli.WaitRun(ctx, id, 0)
	if err != nil || v.State != "done" || len(v.Result) == 0 {
		t.Fatalf("run %s after its node died: %+v, %v; want done with a result", id, v, err)
	}
	met, err := f.cli.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := met["pdpad_fleet_requeues_total"]; got != 0 {
		t.Errorf("requeues_total = %v, want 0", got)
	}
	if runs := f.nodes[1].pool.Runs(); len(runs) != 0 {
		t.Errorf("survivor simulated %d runs, want none", len(runs))
	}
}

// TestNodeDrainOutlivesCaller: a drain whose caller disconnects while the
// drained node's run is being re-placed still re-places it. The survivor
// holds the dispatch until the caller is gone; the run must end done, not
// failed with the caller's cancellation.
func TestNodeDrainOutlivesCaller(t *testing.T) {
	f := startDurableFleet(t, 2, stalledFirstNodeConfig())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	id := submitW1(ctx, t, f.cli, 1) // round robin: node n0, which stalls

	arrived, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hold := func() {
		once.Do(func() { close(arrived) })
		<-release
	}
	f.holdSubmit.Store(&hold)
	defer f.holdSubmit.Store(nil)

	drainCtx, cancelDrain := context.WithCancel(ctx)
	drained := make(chan error, 1)
	go func() {
		_, err := f.cli.DrainNode(drainCtx, f.nodes[0].agent.ID())
		drained <- err
	}()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the drained run never reached the survivor")
	}
	cancelDrain()
	if err := <-drained; !errors.Is(err, context.Canceled) {
		t.Fatalf("drain call = %v, want it cancelled", err)
	}
	// Give the coordinator's server time to see the disconnect and cancel
	// the drain request's context, which is what a re-placement under that
	// context would fail on.
	time.Sleep(100 * time.Millisecond)
	close(release)

	v, err := f.cli.WaitRun(ctx, id, 0)
	if err != nil || v.State != "done" {
		t.Fatalf("drained run = %+v, %v; want done", v, err)
	}
}

// gatedConfig makes a node's pool hold every run until release is closed.
func gatedConfig(release <-chan struct{}) runqueue.Config {
	cfg := fastNodeConfig(0)
	inner := cfg.Simulate
	cfg.Simulate = func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return inner(ctx, spec)
	}
	return cfg
}

// followed is what one follower of a run saw: its event states in order,
// and FollowRun's error.
type followed struct {
	states []string
	err    error
}

// follow follows a run through cli in the background: first yields the
// state of the first event, once it arrives, and done what the follower saw
// once the stream ends.
func follow(ctx context.Context, cli *client.Client, id string) (first <-chan string, done <-chan followed) {
	firstc, donec := make(chan string, 1), make(chan followed, 1)
	go func() {
		var f followed
		f.err = cli.FollowRun(ctx, id, func(ev client.Event) bool {
			if len(f.states) == 0 {
				firstc <- ev.State
			}
			f.states = append(f.states, ev.State)
			return true
		})
		donec <- f
	}()
	return firstc, donec
}

// waitState polls a run through cli until it reports state.
func waitState(ctx context.Context, t *testing.T, cli *client.Client, id, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := cli.Run(ctx, id)
		if err == nil && v.State == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never reached %s (last %+v, %v)", id, state, v, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowRunBothBackends follows runs through server.New(backend) for a
// pool and for a coordinator over one node: a late follower starts from the
// event of the run's current state, and a done run yields exactly one
// terminal event.
func TestFollowRunBothBackends(t *testing.T) {
	for _, backend := range []string{"pool", "coordinator"} {
		t.Run(backend, func(t *testing.T) {
			release := make(chan struct{})
			var cli *client.Client
			if backend == "pool" {
				pool := runqueue.New(gatedConfig(release))
				ts := httptest.NewServer(server.New(pool))
				t.Cleanup(func() {
					ts.Close()
					pool.Drain(context.Background())
				})
				cli = client.New(ts.URL)
			} else {
				f := startFleet(t, 1, PlaceRoundRobin, func(int) runqueue.Config { return gatedConfig(release) })
				cli = f.cli
			}
			t.Cleanup(func() { closeOnce(release) })
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			id := submitW1(ctx, t, cli, 1)
			waitState(ctx, t, cli, id, "running")
			first, done := follow(ctx, cli, id)
			if got := <-first; got != "running" {
				t.Errorf("late follower's first event = %s, want running", got)
			}
			close(release)
			if f := <-done; f.err != nil || strings.Join(f.states, ",") != "running,done" {
				t.Errorf("late follower saw %v (%v), want [running done]", f.states, f.err)
			}
			_, done = follow(ctx, cli, id)
			if f := <-done; f.err != nil || strings.Join(f.states, ",") != "done" {
				t.Errorf("follower of a done run saw %v (%v), want exactly [done]", f.states, f.err)
			}
		})
	}
}

// closeOnce closes ch unless it is closed already.
func closeOnce(ch chan struct{}) {
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// TestFollowRunAcrossNodeDeath: a follower attached before the serving
// node dies sees the run queued again on requeue and then its one terminal
// event, from the survivor.
func TestFollowRunAcrossNodeDeath(t *testing.T) {
	release := make(chan struct{})
	f := startFleet(t, 2, PlaceRoundRobin, func(i int) runqueue.Config {
		if i == 0 {
			return gatedConfig(release)
		}
		return fastNodeConfig(i)
	})
	t.Cleanup(func() { closeOnce(release) })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	id := submitW1(ctx, t, f.cli, 1) // round robin: node n0, which holds it
	waitState(ctx, t, f.cli, id, "running")
	first, done := follow(ctx, f.cli, id)
	<-first
	f.nodes[0].Kill()

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	terminal := 0
	for _, s := range r.states {
		if client.Terminal(s) {
			terminal++
		}
	}
	if len(r.states) < 3 || r.states[0] != "running" || r.states[1] != "queued" ||
		r.states[len(r.states)-1] != "done" || terminal != 1 {
		t.Errorf("follower across node death saw %v, want running, queued, ..., one terminal done", r.states)
	}
}

// TestCloseStopsWatchers: Close returns only once the watchers of runs
// still in flight on their nodes are gone, and the fleet leaves no
// goroutine behind.
func TestCloseStopsWatchers(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	f := startFleet(t, 1, PlaceRoundRobin, func(int) runqueue.Config { return gatedConfig(release) })
	t.Cleanup(func() { closeOnce(release) })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for seed := int64(1); seed <= 2; seed++ {
		waitState(ctx, t, f.cli, submitW1(ctx, t, f.cli, seed), "running")
	}
	if watchers() == 0 {
		t.Fatal("no watcher follows the runs in flight")
	}
	f.c.coord.Close()
	if n := watchers(); n != 0 {
		t.Errorf("%d watchers outlive Close", n)
	}
}

// watchers counts the goroutines running Coordinator.watch.
func watchers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "fleet.(*Coordinator).watch(")
}
