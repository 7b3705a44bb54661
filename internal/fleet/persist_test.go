package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/faults"
	"pdpasim/internal/obs"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
	"pdpasim/internal/store"
)

// mustRecord marshals v into a store record of the given kind.
func mustRecord(t *testing.T, kind string, v any) store.Record {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return store.Record{Kind: kind, Payload: payload}
}

// recovered is what a coordinator restarted on a record stream rehydrates:
// its nodes, its runs in their journal form, how many records it dropped,
// and the run ledger's live and dead bytes.
type recovered struct {
	nodes      []nodeRecord
	runs       []crunRecord
	dropped    int
	live, dead int64
}

// recoverAll folds a recovered record stream through recoverFleet, into a
// sweep index and the coordinator's run ledger as NewCoordinator does, and
// also returns the recovered sweeps' IDs, oldest first.
func recoverAll(recs []store.Record) (recovered, []string) {
	x := runqueue.NewSweepIndex(kindCoordSweep, nil, &obs.Counter{}, runqueue.SweepHooks{
		Members: func(_ context.Context, ids []string) []runqueue.SweepMember {
			return make([]runqueue.SweepMember, len(ids))
		},
	})
	c := &Coordinator{}
	runs := newRunLedger(c)
	fr := recoverFleet(x, runs, recs)
	rec := recovered{nodes: fr.nodes, dropped: fr.dropped}
	rec.live, rec.dead = runs.Bytes()
	runs.Each(false, func(cr *crun) { rec.runs = append(rec.runs, cr.crunRecord) })
	var ids []string
	for _, v := range x.Sweeps(context.Background()) {
		ids = append([]string{v.ID}, ids...)
	}
	return rec, ids
}

// delRecord is the JSON of a cdel record.
type delRecord struct {
	ID string `json:"id"`
}

// sweepRecord is the JSON of a csweep record, written by hand so the tests
// pin the journal's field names.
func sweepRecord(id string, runIDs ...string) map[string]any {
	return map[string]any{"id": id, "run_ids": runIDs}
}

func TestRecoverStateLastWins(t *testing.T) {
	recs := []store.Record{
		mustRecord(t, kindCoordNode, nodeRecord{ID: "node-001", Addr: "http://a"}),
		mustRecord(t, kindCoordNode, nodeRecord{ID: "node-002", Addr: "http://b"}),
		mustRecord(t, kindCoordNode, nodeRecord{ID: "node-001", Addr: "http://a", Drained: true, ScaleDrained: true}),
		mustRecord(t, kindCoordRun, crunRecord{ID: "run-000001", State: "queued"}),
		mustRecord(t, kindCoordRun, crunRecord{ID: "run-000001", State: "running", NodeID: "node-002"}),
		mustRecord(t, kindCoordSweep, sweepRecord("sweep-000001", "run-000001")),
	}
	rec, sweeps := recoverAll(recs)
	if rec.dropped != 0 {
		t.Fatalf("dropped = %d, want 0", rec.dropped)
	}
	if len(rec.nodes) != 2 || rec.nodes[0].ID != "node-001" || rec.nodes[1].ID != "node-002" {
		t.Fatalf("nodes = %+v, want node-001 then node-002", rec.nodes)
	}
	if !rec.nodes[0].Drained || !rec.nodes[0].ScaleDrained {
		t.Errorf("node-001 = %+v, want the later drained record to win", rec.nodes[0])
	}
	if len(rec.runs) != 1 || rec.runs[0].State != "running" || rec.runs[0].NodeID != "node-002" {
		t.Fatalf("runs = %+v, want one run in its latest state", rec.runs)
	}
	if len(sweeps) != 1 || sweeps[0] != "sweep-000001" {
		t.Fatalf("sweeps = %+v", sweeps)
	}
	// Only run records count: the superseded one is dead, the latest live.
	wantBytes(t, rec, len(recs[4].Payload), len(recs[3].Payload))
}

// wantBytes checks the run ledger's recovered live and dead bytes.
func wantBytes(t *testing.T, rec recovered, live, dead int) {
	t.Helper()
	if rec.live != int64(live) || rec.dead != int64(dead) {
		t.Errorf("ledger bytes live %d, dead %d; want %d and %d", rec.live, rec.dead, live, dead)
	}
}

func TestRecoverStateDeletes(t *testing.T) {
	recs := []store.Record{
		mustRecord(t, kindCoordRun, crunRecord{ID: "run-000001", State: "queued"}),
		mustRecord(t, kindCoordRun, crunRecord{ID: "run-000002", State: "queued"}),
		mustRecord(t, kindCoordDel, delRecord{ID: "run-000001"}),
	}
	rec, _ := recoverAll(recs)
	if len(rec.runs) != 1 || rec.runs[0].ID != "run-000002" {
		t.Fatalf("runs = %+v, want run-000001 erased", rec.runs)
	}
	// The erased run's record and the delete record are both dead.
	dead := len(recs[0].Payload) + len(recs[2].Payload)
	wantBytes(t, rec, len(recs[1].Payload), dead)

	// Erased then recreated: the ID appears twice in first-seen order but
	// must come back exactly once, in its latest state.
	recs = append(recs, mustRecord(t, kindCoordRun, crunRecord{ID: "run-000001", State: "running"}))
	rec, _ = recoverAll(recs)
	if len(rec.runs) != 2 {
		t.Fatalf("runs = %+v, want exactly two", rec.runs)
	}
	seen := 0
	for _, rr := range rec.runs {
		if rr.ID == "run-000001" {
			seen++
			if rr.State != "running" {
				t.Errorf("recreated run state = %s, want running", rr.State)
			}
		}
	}
	if seen != 1 {
		t.Fatalf("run-000001 appears %d times, want once", seen)
	}
	wantBytes(t, rec, len(recs[1].Payload)+len(recs[3].Payload), dead)
}

func TestRecoverStateDropsWreckage(t *testing.T) {
	recs := []store.Record{
		{Kind: kindCoordRun, Payload: []byte("{half a record")},
		{Kind: kindCoordNode, Payload: []byte(`{"addr":"http://x"}`)}, // empty ID
		{Kind: "unknown-kind", Payload: []byte(`{}`)},
		{Kind: kindCoordDel, Payload: []byte("??")},
		{Kind: kindCoordSweep, Payload: []byte("{half a sweep")},
		mustRecord(t, kindCoordRun, crunRecord{ID: "run-000001", State: "queued"}),
	}
	rec, sweeps := recoverAll(recs)
	if rec.dropped != 5 || len(sweeps) != 0 {
		t.Errorf("dropped = %d with %d sweeps, want 5 and none", rec.dropped, len(sweeps))
	}
	if len(rec.runs) != 1 || len(rec.nodes) != 0 {
		t.Errorf("survivors = %d runs %d nodes, want 1/0", len(rec.runs), len(rec.nodes))
	}
}

// TestRecoverStateAcrossCompaction round-trips durable state through a
// compaction: snapshot generation plus post-snapshot journal records must
// fold together with the same last-wins semantics.
func TestRecoverStateAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(kind string, v any) {
		t.Helper()
		if err := st.Append(mustRecord(t, kind, v)); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(kindCoordNode, nodeRecord{ID: "node-001", Addr: "http://a"})
	appendRec(kindCoordRun, crunRecord{ID: "run-000001", State: "queued", NodeID: "node-001"})
	// Compact to a snapshot holding the node in a newer state, then journal
	// a newer run state on top of it.
	if err := st.Compact([]store.Record{
		mustRecord(t, kindCoordNode, nodeRecord{ID: "node-001", Addr: "http://a", Cordoned: true}),
		mustRecord(t, kindCoordRun, crunRecord{ID: "run-000001", State: "queued", NodeID: "node-001"}),
	}); err != nil {
		t.Fatal(err)
	}
	appendRec(kindCoordRun, crunRecord{ID: "run-000001", State: "running", NodeID: "node-001"})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, _ := recoverAll(st2.TakeRecovered())
	if len(rec.nodes) != 1 || !rec.nodes[0].Cordoned {
		t.Fatalf("nodes = %+v, want the snapshot's cordoned node", rec.nodes)
	}
	if len(rec.runs) != 1 || rec.runs[0].State != "running" {
		t.Fatalf("runs = %+v, want the journal's running state to win", rec.runs)
	}
}

// TestCoordinatorRestartRecoversSweep is the tentpole contract in-process:
// a sweep interrupted by a coordinator kill mid-flight completes after a
// restart with cells byte-identical to a standalone daemon's, with the
// stragglers settled through the reconcile protocol rather than re-run.
func TestCoordinatorRestartRecoversSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	want := standaloneCells(t)

	// Node 0 stalls every simulation so the kill lands while its members
	// are still in flight; node 1 simulates at full speed.
	var stall atomic.Bool
	stall.Store(true)
	real := func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
		ws, opts := spec.Facade()
		return pdpasim.RunContext(ctx, ws, opts)
	}
	f := startDurableFleet(t, 2, func(i int) runqueue.Config {
		if i != 0 {
			return runqueue.Config{}
		}
		return runqueue.Config{Simulate: func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			if stall.Load() {
				select {
				case <-time.After(1500 * time.Millisecond):
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
	// Wait until the fast node's members are done — their results are on
	// disk — while the stalled node still owns in-flight members.
	for {
		v, err := f.cli.Sweep(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Done >= 2 {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("sweep never reached 2 done members")
		case <-time.After(10 * time.Millisecond):
		}
	}

	f.c.Kill()
	stall.Store(false)
	f.restartCoordinator()
	f.waitHealthy(ctx, 2)

	v, err := f.cli.WaitSweep(ctx, sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("recovered sweep state = %s, errors %v", v.State, v.Errors)
	}
	if !bytes.Equal(v.Cells, want) {
		t.Errorf("recovered cells differ from standalone:\nfleet: %s\nwant:  %s", v.Cells, want)
	}
	if got := f.metric(ctx, "pdpad_fleet_recovered_runs_total"); got < 4 {
		t.Errorf("recovered_runs_total = %v, want >= 4", got)
	}
	if got := f.metric(ctx, "pdpad_fleet_recovered_sweeps_total"); got < 1 {
		t.Errorf("recovered_sweeps_total = %v, want >= 1", got)
	}
	if got := f.metric(ctx, "pdpad_fleet_reconciled_runs_total"); got < 1 {
		t.Errorf("reconciled_runs_total = %v, want >= 1", got)
	}
	if got := f.metric(ctx, "pdpad_fleet_requeues_total"); got != 0 {
		t.Errorf("requeues_total = %v, want 0 (reconcile must not re-run surviving work)", got)
	}
}

// TestCoordinatorRestartKeepsIDSequences: recovered ID counters continue
// after the highest persisted sequence instead of colliding with it.
func TestCoordinatorRestartKeepsIDSequences(t *testing.T) {
	f := startDurableFleet(t, 1, fastNodeConfig)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w1", Seed: 1},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.cli.WaitRun(ctx, sub.ID, 0); err != nil {
		t.Fatal(err)
	}

	f.c.Kill()
	f.restartCoordinator()
	f.waitHealthy(ctx, 1)

	again, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
		Workload: client.Workload{Mix: "w2", Seed: 2},
		Options:  client.RunOptions{Policy: "equip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != "run-000002" {
		t.Errorf("post-restart run ID = %s, want run-000002 (sequence continued)", again.ID)
	}
	// The pre-restart run is still addressable under its old ID.
	v, err := f.cli.Run(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != "done" || len(v.Result) == 0 {
		t.Errorf("recovered run %s = %s with %d result bytes", sub.ID, v.State, len(v.Result))
	}
}

// TestSweepAdmissionUnwindsOnDispatchFailure pins the coordinator's atomic
// sweep admission: when a member of the grid cannot be placed on any node,
// the submission fails with 502 node_unreachable, the members already placed
// are unwound, and nothing of the batch is listed — neither by the
// coordinator that refused it nor by one restarted on the same store.
func TestSweepAdmissionUnwindsOnDispatchFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Dispatch attempts 0 and 1 succeed; every later one fails. The grid's
	// first two members in dispatch order land, the third fails over across
	// both nodes and finds no taker.
	inj := faults.New(1, faults.Rule{Site: faults.SiteNodeDispatch, Kind: faults.KindError, After: 2})
	f := launchFleet(t, Config{Health: fastHealth, Faults: inj}, t.TempDir(), 0, 2, fastNodeConfig)

	req := testSweep()
	req.Seeds = []int64{1, 2, 3} // six members: the failing one sits mid-batch
	_, err := f.cli.SubmitSweep(ctx, req)
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusBadGateway || api.Code != server.CodeNodeUnreachable {
		t.Fatalf("sweep submit error = %v, want 502 %s", err, server.CodeNodeUnreachable)
	}
	if got := inj.Injected(faults.SiteNodeDispatch); got != 2 {
		t.Errorf("injected dispatch faults = %d, want 2 (one per node for the failing member)", got)
	}

	assertNothingListed := func(when string) {
		t.Helper()
		runs, err := f.cli.Runs(ctx, client.ListOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(runs.Runs) != 0 {
			t.Errorf("%s: %d runs listed, want none: %+v", when, len(runs.Runs), runs.Runs)
		}
		sweeps, err := f.cli.Sweeps(ctx, client.ListOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(sweeps.Sweeps) != 0 {
			t.Errorf("%s: %d sweeps listed, want none: %+v", when, len(sweeps.Sweeps), sweeps.Sweeps)
		}
	}
	assertNothingListed("after the refused sweep")

	f.c.Kill()
	f.restartCoordinator()
	assertNothingListed("after a restart on the same store")
}

// TestRegistryEvictsOldestTerminalRuns: the coordinator bounds its run
// registry the way the pool bounds its history. Past the bound the oldest
// terminal runs are forgotten — unlisted, 404, and erased from the store —
// and a sweep that lost a member reads failed "evicted from history".
func TestRegistryEvictsOldestTerminalRuns(t *testing.T) {
	f := startDurableFleet(t, 1, fastNodeConfig)
	f.c.coord.mu.Lock()
	f.c.coord.runs.Limit = 2
	f.c.coord.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sw, err := f.cli.SubmitSweep(ctx, client.SubmitSweepRequest{SweepSpec: client.SweepSpec{
		Policies: []string{"equip"}, Mixes: []string{"w1"}, Seeds: []int64{1, 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.cli.WaitSweep(ctx, sw.ID, 0); err != nil || v.State != "done" {
		t.Fatalf("sweep = %+v, %v; want done", v, err)
	}
	var runIDs []string
	for seed := int64(3); seed <= 5; seed++ {
		sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
			Workload: client.Workload{Mix: "w1", Seed: seed},
			Options:  client.RunOptions{Policy: "equip"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.cli.WaitRun(ctx, sub.ID, 0); err != nil {
			t.Fatal(err)
		}
		runIDs = append(runIDs, sub.ID)
	}

	// Five terminal runs against a bound of two: the sweep's members and the
	// first single run are gone; the two newest remain.
	check := func(when string) {
		t.Helper()
		page, err := f.cli.Runs(ctx, client.ListOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var listed []string
		for _, v := range page.Runs {
			listed = append(listed, v.ID)
		}
		if want := []string{runIDs[2], runIDs[1]}; fmt.Sprint(listed) != fmt.Sprint(want) {
			t.Errorf("%s: listed runs %v, want %v", when, listed, want)
		}
		var api *client.APIError
		if _, err := f.cli.Run(ctx, sw.RunIDs[0]); !errors.As(err, &api) || api.Status != http.StatusNotFound {
			t.Errorf("%s: GET evicted run %s: err %v, want 404", when, sw.RunIDs[0], err)
		}
		v, err := f.cli.Sweep(ctx, sw.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := sw.RunIDs[0] + ": evicted from history"; v.State != "failed" || len(v.Errors) != 1 || v.Errors[0] != want {
			t.Errorf("%s: sweep %s errors %v, want failed with %q", when, v.State, v.Errors, want)
		}
	}
	check("live")
	f.c.Kill()
	f.restartCoordinator()
	check("after a restart on the same store")
}

// TestRegistryEvictsLeastRecentlyUsed: the registry forgets runs in the
// order they finished, not the order they were submitted, and a cache hit
// renews a run. A long sweep member submitted before more than the bound
// of short runs outlives them all, live and across a restart, and a
// resubmission keeps the run it is served from.
func TestRegistryEvictsLeastRecentlyUsed(t *testing.T) {
	const longSeed = 99
	release := make(chan struct{})
	f := startDurableFleet(t, 1, func(int) runqueue.Config {
		cfg := fastNodeConfig(0)
		fast := cfg.Simulate
		cfg.Simulate = func(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
			if spec.Workload.Seed == longSeed {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return fast(ctx, spec)
		}
		return cfg
	})
	setLimit := func() {
		f.c.coord.mu.Lock()
		f.c.coord.runs.Limit = 2
		f.c.coord.mu.Unlock()
	}
	setLimit()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sw, err := f.cli.SubmitSweep(ctx, client.SubmitSweepRequest{SweepSpec: client.SweepSpec{
		Policies: []string{"equip"}, Mixes: []string{"w1"}, Seeds: []int64{longSeed},
	}})
	if err != nil {
		t.Fatal(err)
	}
	long := sw.RunIDs[0]

	run := func(seed int64) string {
		t.Helper()
		sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
			Workload: client.Workload{Mix: "w1", Seed: seed},
			Options:  client.RunOptions{Policy: "equip"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.cli.WaitRun(ctx, sub.ID, 0); err != nil {
			t.Fatal(err)
		}
		return sub.ID
	}
	kept := func(ids ...string) {
		t.Helper()
		for _, id := range ids {
			if v, err := f.cli.Run(ctx, id); err != nil || v.State != "done" {
				t.Errorf("run %s = %s, %v; want done", id, v.State, err)
			}
		}
	}
	evicted := func(id string) {
		t.Helper()
		var api *client.APIError
		if _, err := f.cli.Run(ctx, id); !errors.As(err, &api) || api.Status != http.StatusNotFound {
			t.Errorf("GET evicted run %s: err %v, want 404", id, err)
		}
	}
	sweepState := func(want string) {
		t.Helper()
		if v, err := f.cli.Sweep(ctx, sw.ID); err != nil || v.State != want {
			t.Errorf("sweep = %+v, %v; want %s", v, err, want)
		}
	}

	s3, s4, s5 := run(3), run(4), run(5)
	close(release)
	if v, err := f.cli.WaitSweep(ctx, sw.ID, 0); err != nil || v.State != "done" {
		t.Fatalf("sweep = %+v, %v; want done", v, err)
	}
	// The long run finished last: settling it evicts s4, not itself.
	kept(long, s5)
	evicted(s3)
	evicted(s4)
	sweepState("done")

	// Recovery rebuilds the finish order: s5 goes before the long run.
	f.c.Kill()
	f.restartCoordinator()
	setLimit()
	f.waitHealthy(ctx, 1)
	s6 := run(6)
	kept(long, s6)
	evicted(s5)
	sweepState("done")

	// A cache hit renews s6, so s7 and s8 push out the long run and s7.
	s7 := run(7)
	if again := run(6); again != s6 {
		t.Fatalf("resubmission served %s, want cache hit on %s", again, s6)
	}
	s8 := run(8)
	kept(s6, s8)
	evicted(long)
	evicted(s7)
	sweepState("failed")
}

// TestCoordinatorCompactionOfForgottenRuns: the coordinator's run ledger
// compacts once the runs its registry forgot outweigh the ones it holds.
// The compaction rewrites the node ledger too, dropping a drained node with
// nothing pending, and a restarted coordinator answers every retained run
// byte for byte and brings the live node back pending-reconcile.
func TestCoordinatorCompactionOfForgottenRuns(t *testing.T) {
	const limit = 2
	f := startDurableFleet(t, 2, fastNodeConfig)
	f.c.coord.mu.Lock()
	f.c.coord.runs.Limit = limit
	f.c.coord.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	live, gone := f.nodes[0].agent.ID(), f.nodes[1].agent.ID()
	f.nodes[1].agent.Stop()
	if nv, err := f.cli.DrainNode(ctx, gone); err != nil || nv.State != string(StateDrained) {
		t.Fatalf("drain %s = %+v, %v; want drained", gone, nv, err)
	}
	nodeIDs := func() []string {
		t.Helper()
		page, err := f.cli.Nodes(ctx, client.ListOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, nv := range page.Nodes {
			ids = append(ids, nv.ID)
		}
		slices.Sort(ids)
		return ids
	}
	if got, want := nodeIDs(), []string{live, gone}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("nodes before compaction %v, want %v", got, want)
	}

	var ids []string
	for seed := int64(1); f.c.store.Stats().Compactions == 0; seed++ {
		if seed > 20 {
			t.Fatalf("no compaction after %d runs against a registry bound of %d", seed-1, limit)
		}
		sub, err := f.cli.SubmitRun(ctx, client.SubmitRunRequest{
			Workload: client.Workload{Mix: "w1", Seed: seed},
			Options:  client.RunOptions{Policy: "equip"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if v, err := f.cli.WaitRun(ctx, sub.ID, 0); err != nil || v.State != "done" {
			t.Fatalf("run %s = %+v, %v; want done", sub.ID, v, err)
		}
		ids = append(ids, sub.ID)
	}
	getRaw := func(id string) string {
		t.Helper()
		resp, err := http.Get(f.c.URL() + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET run %s: %d, %v", id, resp.StatusCode, err)
		}
		return body.String()
	}
	retained := ids[len(ids)-limit:]
	before := map[string]string{}
	for _, id := range retained {
		before[id] = getRaw(id)
	}

	f.nodes[0].agent.Stop() // the live node stays away, so it stays pending
	f.c.Kill()
	f.restartCoordinator()
	f.c.coord.mu.Lock()
	pending := f.c.coord.nodes[live] != nil && f.c.coord.nodes[live].pendingReconcile
	f.c.coord.mu.Unlock()
	if !pending {
		t.Errorf("live node %s not recovered pending-reconcile", live)
	}
	if got, want := nodeIDs(), []string{live}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("nodes after compaction and restart %v, want %v (drained %s dropped)", got, want, gone)
	}
	for _, id := range retained {
		if got := getRaw(id); got != before[id] {
			t.Errorf("run %s after restart:\n%s\nwant\n%s", id, got, before[id])
		}
	}
}
