package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pdpasim/client"
	"pdpasim/internal/metrics"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/store"
)

// setUp brings the workload's stack up on a fresh store directory, warming
// it with warm when set, for as many rounds as moreSetup asks, and keeps
// the last round's stack. It returns each round's set-up time.
func (e *env) setUp(ctx context.Context, dir string, isFleet bool, warm func(*stack) error) ([]time.Duration, *stack, error) {
	var setups []time.Duration
	var s *stack
	for began := time.Now(); e.moreSetup(setups, began); {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, fmt.Errorf("%w: stopping set-up round %d: %v", errStart, len(setups), err)
			}
		}
		if err := mkdirFresh(dir); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", errStart, err)
		}
		start := time.Now()
		var err error
		if s, err = startStack(ctx, dir, isFleet, e.t); err != nil {
			return nil, nil, err
		}
		if warm != nil {
			if err := warm(s); err != nil {
				s.stop()
				return nil, nil, fmt.Errorf("%w: warming: %v", errStart, err)
			}
		}
		setups = append(setups, time.Since(start))
	}
	return setups, s, nil
}

// sample is one op's run ID and result bytes, kept for the checks.
type sample struct {
	id     string
	result []byte
}

// pdpaload's default traffic, which serve-mixed replays: its -workers,
// -cache-fraction, -sse-fraction and -poll-interval.
const (
	mixedClients = 8
	mixedRepeat  = 0.25
	mixedSSE     = 0.25
	mixedPoll    = 20 * time.Millisecond
	// mixedRecent is how far back a repeat reaches. pdpaload repeats any
	// earlier spec, so late in a long soak most repeats have left the
	// 128-entry cache and simulate again, at a share that depends on timing.
	// Reaching back at most 64 ops keeps every repeat in the cache, or joined
	// to its run in flight, so the simulated work is a function of the seed.
	mixedRecent = 64
)

// mixedOp is serve-mixed's plan for op i: the op whose spec it submits
// (itself for a new spec) and whether it follows the run over SSE or polls.
func mixedOp(seed int64, i int) (origin int, sse bool) {
	u := func(stream uint64) float64 { return float64(derive(seed, stream, uint64(i))%1_000_000) / 1e6 }
	sse = u(streamFollow) < mixedSSE
	if i < mixedClients || u(streamRepeat) >= mixedRepeat {
		return i, sse
	}
	back := 1 + int(derive(seed, streamRepeatOf, uint64(i))%int64(min(i, mixedRecent)))
	origin, _ = mixedOp(seed, i-back)
	return origin, sse
}

// freshOps is the op of serve-fresh and fleet-fresh: POST /v1/runs for a
// spec no earlier op used, follow the run over SSE to its terminal state,
// then GET the result. With mixed set it is serve-mixed's op: the spec and
// the way of following come from mixedOp, and a polled run is fetched every
// mixedPoll until it is terminal, as pdpaload fetches it.
type freshOps struct {
	cli   *client.Client
	t     *tracer
	seed  int64
	mixed bool

	mu          sync.Mutex
	samples     map[int]sample            // every serveOracleEvery-th op with a new spec
	digests     map[int][sha256.Size]byte // mixed: every op's result digest
	resultBytes int                       // summed result sizes
	lag         []time.Duration           // terminal event seen − run finished_at
}

// plan returns op i's spec origin and whether it follows over SSE.
func (f *freshOps) plan(i int) (int, bool) {
	if f.mixed {
		return mixedOp(f.seed, i)
	}
	return i, true
}

// spec is the spec op i submits when it is its own origin.
func (f *freshOps) spec(i int) runSpec {
	if f.mixed {
		return mixedSpec(f.seed, i)
	}
	return freshSpec(f.seed, i)
}

func (f *freshOps) op(ctx context.Context, i int) (time.Duration, error) {
	origin, sse := f.plan(i)
	ctx, end := f.t.start(ctx, "op", int64(i))
	start := time.Now()
	id, view, seen, err := f.call(ctx, f.spec(origin), sse)
	lat := time.Since(start)
	end()
	if err != nil {
		return lat, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resultBytes += len(view.Result)
	if origin == i && i%serveOracleEvery == 0 {
		f.samples[i] = sample{id, view.Result}
	}
	if f.mixed {
		f.digests[i] = sha256.Sum256(view.Result)
	}
	if sse && view.FinishedAt != nil {
		f.lag = append(f.lag, seen.Sub(*view.FinishedAt))
	}
	return lat, nil
}

// call submits spec, follows the run to its terminal state over SSE or by
// polling, and returns the run's ID, its final view and when the client saw
// it end.
func (f *freshOps) call(ctx context.Context, spec runSpec, sse bool) (string, client.RunView, time.Time, error) {
	cctx, end := f.t.start(ctx, "client.submit", 0)
	sub, err := f.cli.SubmitRun(cctx, spec.request())
	end()
	if err != nil {
		return "", client.RunView{}, time.Time{}, fmt.Errorf("submit: %w", err)
	}
	if !sse {
		return f.poll(ctx, sub.ID)
	}
	var last client.Event
	var seen time.Time
	cctx, end = f.t.start(ctx, "client.follow", 0)
	err = f.cli.FollowRun(cctx, sub.ID, func(ev client.Event) bool {
		last, seen = ev, time.Now()
		return true
	})
	end()
	if err != nil {
		return sub.ID, client.RunView{}, seen, fmt.Errorf("follow %s: %w", sub.ID, err)
	}
	cctx, end = f.t.start(ctx, "client.get", 0)
	view, err := f.cli.Run(cctx, sub.ID)
	end()
	if err != nil {
		return sub.ID, view, seen, fmt.Errorf("get %s: %w", sub.ID, err)
	}
	if last.State != "done" || view.State != "done" {
		return sub.ID, view, seen, fmt.Errorf("run %s ended %q (stream said %q): %s", sub.ID, view.State, last.State, view.Error)
	}
	return sub.ID, view, seen, nil
}

// poll fetches run id until it is terminal, sleeping mixedPoll between
// fetches.
func (f *freshOps) poll(ctx context.Context, id string) (string, client.RunView, time.Time, error) {
	for {
		cctx, end := f.t.start(ctx, "client.get", 0)
		view, err := f.cli.Run(cctx, id)
		end()
		switch {
		case err != nil:
			return id, view, time.Time{}, fmt.Errorf("get %s: %w", id, err)
		case view.State == "done":
			return id, view, time.Now(), nil
		case view.Terminal():
			return id, view, time.Time{}, fmt.Errorf("run %s ended %q: %s", id, view.State, view.Error)
		}
		select {
		case <-time.After(mixedPoll):
		case <-ctx.Done():
			return id, view, time.Time{}, ctx.Err()
		}
	}
}

// counters are the monotone counters read before and after the window.
type counters struct {
	stores                   []store.Stats
	hits, misses, heartbeats float64
}

func (s *stack) counters() counters {
	var c counters
	for _, st := range s.stores() {
		c.stores = append(c.stores, st.Stats())
	}
	for _, d := range s.daemons {
		reg := d.pool.Metrics()
		v, _ := reg.Value("pdpad_cache_hits_total", "")
		c.hits += v
		v, _ = reg.Value("pdpad_cache_misses_total", "")
		c.misses += v
	}
	if s.coord != nil {
		c.heartbeats, _ = s.coord.coord.Metrics().Value("pdpad_fleet_heartbeats_total", "")
	}
	return c
}

// runFresh runs serve-fresh, fleet-fresh (isFleet) or serve-mixed (mixed).
func runFresh(ctx context.Context, e *env, isFleet, mixed bool) error {
	dir := filepath.Join(e.dir, "stack")
	setups, s, err := e.setUp(ctx, dir, isFleet, nil)
	if err != nil {
		return err
	}
	c := clients
	if mixed {
		c = mixedClients
	}
	hc := e.t.client(c)
	f := &freshOps{cli: client.New(s.front, client.WithHTTPClient(hc)), t: e.t, seed: e.seed, mixed: mixed,
		samples: map[int]sample{}, digests: map[int][sha256.Size]byte{}}
	before := s.counters()
	win := e.runWindow(ctx, c, f.op)
	after := s.counters()
	hc.CloseIdleConnections()
	e.account(win, 1, setups)
	for i, d := range f.digests {
		if o, _ := f.plan(i); o != i {
			if want, ok := f.digests[o]; ok {
				e.check(d == want, "op %d repeats op %d's spec but got a different result", i, o)
			}
		}
	}

	var runs []runqueue.Snapshot
	if e.t != nil {
		for _, d := range s.daemons {
			runs = append(runs, d.pool.Runs()...)
		}
	}
	e.checkErr(s.stop(), "stack shutdown")
	var live int64
	for _, d := range s.storeDirs() {
		n, err := dirBytes(d)
		e.checkErr(err, "sizing store")
		live += n
	}

	ops := make([]int, 0, len(f.samples))
	for i := range f.samples {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	var restart time.Duration
	if len(ops) == 0 {
		e.check(false, "no sampled op completed; nothing to read back after restart")
	} else {
		restart, err = recoverStack(ctx, dir, isFleet, f.samples[ops[len(ops)-1]])
		e.checkErr(err, "read-back after restart")
	}
	for _, i := range ops {
		e.checkErr(oracleServed(ctx, f.spec(i), f.samples[i].result), fmt.Sprintf("op %d", i))
	}
	if e.t == nil {
		return nil
	}

	keyOp := map[string]int{}
	for i := range win.ran {
		if o, _ := f.plan(i); o == i && win.ok(i) {
			keyOp[f.spec(i).key()] = i
		}
	}
	specs := make([]runSpec, len(ops))
	for k, i := range ops {
		specs[k] = f.spec(i)
	}
	sp, err := serialPass(specs, e.t, func(k int, res *metrics.RunResult) error {
		var b bytes.Buffer
		if err := res.WriteJSON(&b); err != nil {
			return err
		}
		return sameJSON(b.Bytes(), f.samples[ops[k]].result)
	})
	e.checkErr(err, "serial pass")
	sp.report(e.layers)

	ok := len(win.succeeded())
	spans := e.serveLayers(serveTrace{
		win: win, spans: e.t.snapshot(), runs: runs, keyOp: keyOp,
		before: before, after: after,
	})
	e.layers.set("client.result_kb", ratio(float64(f.resultBytes)/1024, float64(ok)))
	e.layers.set("store.live_mb", float64(live)/mib)
	e.layers.set("store.recover_s", restart.Seconds())
	if isFleet {
		e.layers.set("fleet.follow_lag_ms_p50", pctMS(f.lag, 50))
		e.layers.set("fleet.follow_lag_ms_p99", pctMS(f.lag, 99))
		e.layers.set("fleet.node_calls_per_run", ratio(float64(e.t.nodeCalls.Load()), float64(ok)))
		e.layers.set("fleet.node_kb_per_run", ratio(float64(e.t.nodeBytes.Load())/1024, float64(ok)))
		e.layers.set("fleet.heartbeats", after.heartbeats-before.heartbeats)
		e.rep.Samples["fleet.follow_lag"] = len(f.lag)
	}

	e.checkErr(e.storeLayers(s.storeDirs()), "store replay")
	return e.finishTrace(spans, win)
}

// recoverStack reopens a stopped stack on the stores it left and reads one
// run back through the front door, timing restart → byte-identical result.
func recoverStack(ctx context.Context, dir string, isFleet bool, want sample) (time.Duration, error) {
	start := time.Now()
	s, err := startStack(ctx, dir, isFleet, nil)
	if err != nil {
		return 0, err
	}
	hc := newHTTPClient(1)
	v, err := client.New(s.front, client.WithHTTPClient(hc)).Run(ctx, want.id)
	d := time.Since(start)
	hc.CloseIdleConnections()
	stopErr := s.stop()
	switch {
	case err != nil:
		return d, fmt.Errorf("reading back %s: %w", want.id, err)
	case !bytes.Equal(v.Result, want.result):
		return d, fmt.Errorf("run %s read back %d result bytes that differ from the %d the window saw",
			want.id, len(v.Result), len(want.result))
	}
	return d, stopErr
}

// hotSetSize is serve-cached's number of warmed specs; it fits the pool's
// 128-entry result cache.
const hotSetSize = 64

// cachedOps is serve-cached's op: POST a hot spec, which must be answered
// from the cache, then GET its result, which must equal the warmed bytes.
type cachedOps struct {
	cli    *client.Client
	t      *tracer
	seed   int64
	hot    []runSpec
	warmed [][]byte
}

func (c *cachedOps) pick(i int) int { return int(derive(c.seed, streamPick, uint64(i)) % hotSetSize) }

func (c *cachedOps) op(ctx context.Context, i int) (time.Duration, error) {
	h := c.pick(i)
	ctx, end := c.t.start(ctx, "op", int64(i))
	start := time.Now()
	cctx, endCall := c.t.start(ctx, "client.submit", 0)
	sub, err := c.cli.SubmitRun(cctx, c.hot[h].request())
	endCall()
	if err != nil {
		end()
		return time.Since(start), fmt.Errorf("submit: %w", err)
	}
	cctx, endCall = c.t.start(ctx, "client.get", 0)
	view, err := c.cli.Run(cctx, sub.ID)
	endCall()
	lat := time.Since(start)
	end()
	switch {
	case err != nil:
		return lat, fmt.Errorf("get %s: %w", sub.ID, err)
	case !sub.CacheHit:
		return lat, fmt.Errorf("hot spec %d was not a cache hit (run %s, state %s)", h, sub.ID, sub.State)
	case !bytes.Equal(view.Result, c.warmed[h]):
		return lat, fmt.Errorf("hot spec %d: result differs from the warmed bytes", h)
	}
	return lat, nil
}

// warm submits the hot set, follows every run to done, and keeps each
// result.
func (c *cachedOps) warm(ctx context.Context, s *stack) error {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	cli := client.New(s.front, client.WithHTTPClient(hc))
	ids := make([]string, len(c.hot))
	for h, spec := range c.hot {
		sub, err := cli.SubmitRun(ctx, spec.request())
		if err != nil {
			return fmt.Errorf("hot spec %d: %w", h, err)
		}
		ids[h] = sub.ID
	}
	c.warmed = make([][]byte, len(c.hot))
	for h, id := range ids {
		if err := cli.FollowRun(ctx, id, func(client.Event) bool { return true }); err != nil {
			return fmt.Errorf("hot spec %d: %w", h, err)
		}
		v, err := cli.Run(ctx, id)
		if err != nil {
			return fmt.Errorf("hot spec %d: %w", h, err)
		}
		if v.State != "done" {
			return fmt.Errorf("hot spec %d ended %s: %s", h, v.State, v.Error)
		}
		c.warmed[h] = v.Result
	}
	return nil
}

func runServeCached(ctx context.Context, e *env) error {
	c := &cachedOps{t: e.t, seed: e.seed, hot: make([]runSpec, hotSetSize)}
	for h := range c.hot {
		c.hot[h] = hotSpec(e.seed, h)
	}
	dir := filepath.Join(e.dir, "stack")
	setups, s, err := e.setUp(ctx, dir, false, func(s *stack) error { return c.warm(ctx, s) })
	if err != nil {
		return err
	}
	hc := e.t.client(clients)
	c.cli = client.New(s.front, client.WithHTTPClient(hc))
	before := s.counters()
	win := e.runWindow(ctx, clients, c.op)
	after := s.counters()
	hc.CloseIdleConnections()
	e.account(win, 1, setups)
	e.checkErr(s.stop(), "stack shutdown")
	for h := 0; h < hotSetSize; h += serveOracleEvery {
		e.checkErr(oracleServed(ctx, c.hot[h], c.warmed[h]), fmt.Sprintf("hot spec %d", h))
	}
	if e.t == nil {
		return nil
	}
	spans := e.serveLayers(serveTrace{win: win, spans: e.t.snapshot(), before: before, after: after})
	var kb float64
	for i := range win.ran {
		if win.ok(i) {
			kb += float64(len(c.warmed[c.pick(i)])) / 1024
		}
	}
	e.layers.set("client.result_kb", ratio(kb, float64(len(win.succeeded()))))
	return e.finishTrace(spans, win)
}

// serveTrace is what a serving workload hands serveLayers.
type serveTrace struct {
	win           *window
	spans         []span
	runs          []runqueue.Snapshot // every pool's runs after the window
	keyOp         map[string]int      // spec key → op index
	before, after counters
}

// serveLayers sets the client, server, runqueue, system, store and
// coordinator metrics a serving window measured, and returns its spans with
// the pool's queue and attempt intervals (from run snapshots) and the timed
// simulations added under each op's server.events span.
func (e *env) serveLayers(st serveTrace) []span {
	byName := map[string][]time.Duration{}
	kids := map[int64][]span{}
	events := map[int64]int64{} // op → its server.events span
	opSpan := map[int64]int64{} // op → its root span, for an op that polled
	var requests, non2xx float64
	for _, s := range st.spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
		kids[s.Parent] = append(kids[s.Parent], s)
		if strings.HasPrefix(s.Name, "server.") {
			requests++
			if s.Status < 200 || s.Status > 299 {
				non2xx++
			}
		}
		if _, seen := events[s.Trace]; s.Name == "server.events" && !seen {
			events[s.Trace] = s.ID
		}
		if s.Name == "op" {
			opSpan[s.Trace] = s.ID
		}
	}
	var overhead []time.Duration
	for _, s := range st.spans {
		if !strings.HasPrefix(s.Name, "client.") {
			continue
		}
		for _, k := range kids[s.ID] {
			if strings.HasPrefix(k.Name, "server.") || strings.HasPrefix(k.Name, "coord.") {
				overhead = append(overhead, s.dur()-k.dur())
				break
			}
		}
	}
	m := e.layers
	m.set("client.submit_ms_p50", pctMS(byName["client.submit"], 50))
	m.set("client.follow_ms_p50", pctMS(byName["client.follow"], 50))
	m.set("client.get_ms_p50", pctMS(byName["client.get"], 50))
	m.set("client.overhead_ms_p50", pctMS(overhead, 50))
	m.set("server.requests", requests)
	m.set("server.non2xx", non2xx)
	m.set("server.submit_ms_p50", pctMS(byName["server.submit"], 50))
	m.set("server.submit_ms_p99", pctMS(byName["server.submit"], 99))
	m.set("server.get_ms_p50", pctMS(byName["server.get"], 50))
	m.set("server.get_ms_p99", pctMS(byName["server.get"], 99))
	m.set("fleet.coord_submit_ms_p50", pctMS(byName["coord.submit"], 50))
	m.set("fleet.node_call_ms_p50", pctMS(byName["fleet.node_call"], 50))
	e.rep.Samples["server.submit"] = len(byName["server.submit"])
	e.rep.Samples["server.get"] = len(byName["server.get"])

	hits, misses := st.after.hits-st.before.hits, st.after.misses-st.before.misses
	m.set("runqueue.cache_hits", hits)
	m.set("runqueue.cache_misses", misses)
	m.set("runqueue.cache_hit_ratio", ratio(hits, hits+misses))
	var appends, appendB, fsyncs, compactions uint64
	for i, a := range st.after.stores {
		b := st.before.stores[i]
		appends += a.AppendedEntries - b.AppendedEntries
		appendB += a.AppendedBytes - b.AppendedBytes
		fsyncs += a.Fsyncs - b.Fsyncs
		compactions += a.Compactions - b.Compactions
	}
	m.set("store.appends", float64(appends))
	m.set("store.append_mb", float64(appendB)/mib)
	m.set("store.fsyncs", float64(fsyncs))
	m.set("store.compactions", float64(compactions))

	e.t.mu.Lock()
	sims := e.t.sims
	e.t.mu.Unlock()
	var simDur, wait, attempt, overheadRQ []time.Duration
	for _, c := range sims {
		simDur = append(simDur, time.Duration(c.end-c.start))
	}
	spans := st.spans
	newSpan := func(name string, trace, parent int64, from, to time.Time) int64 {
		id := e.t.nextID.Add(1)
		spans = append(spans, span{Name: name, Trace: trace, ID: id, Parent: parent,
			Start: from.UnixNano(), End: to.UnixNano()})
		return id
	}
	for _, r := range st.runs {
		op, ok := st.keyOp[r.Key]
		if !ok || r.Started.IsZero() || r.Finished.IsZero() {
			continue
		}
		wait = append(wait, r.Started.Sub(r.Submitted))
		attempt = append(attempt, r.Finished.Sub(r.Started))
		parent, ok := events[int64(op)]
		if !ok {
			parent = opSpan[int64(op)]
		}
		newSpan("runqueue.queue", int64(op), parent, r.Submitted, r.Started)
		aid := newSpan("runqueue.attempt", int64(op), parent, r.Started, r.Finished)
		if c, ok := sims[r.Key]; ok {
			overheadRQ = append(overheadRQ, r.Finished.Sub(r.Started)-time.Duration(c.end-c.start))
			newSpan("system.run", int64(op), aid, time.Unix(0, c.start), time.Unix(0, c.end))
		}
	}
	m.set("runqueue.queue_wait_ms_p50", pctMS(wait, 50))
	m.set("runqueue.queue_wait_ms_p99", pctMS(wait, 99))
	m.set("runqueue.attempt_ms_p50", pctMS(attempt, 50))
	m.set("runqueue.attempt_ms_p99", pctMS(attempt, 99))
	m.set("runqueue.attempt_overhead_ms_p99", pctMS(overheadRQ, 99))
	m.set("system.runs", float64(len(sims)))
	m.set("system.run_ms_p50", pctMS(simDur, 50))
	m.set("system.run_ms_p99", pctMS(simDur, 99))
	e.rep.Samples["runqueue.attempt"] = len(attempt)
	e.rep.Samples["system.run"] = len(simDur)
	return spans
}

// storeLayers replays the store layer on the directories the window left:
// a timed store.Open of each, a timed Compact of what it recovered, and a
// timed Append of sampled recovered payloads into a scratch store.
func (e *env) storeLayers(dirs []string) error {
	var open, compact time.Duration
	var recovered, compacted float64
	var payloads [][]byte
	for _, dir := range dirs {
		start := time.Now()
		st, err := store.Open(dir, store.Options{SyncInterval: storeSync})
		open += time.Since(start)
		if err != nil {
			return err
		}
		recs := st.TakeRecovered()
		recovered += float64(st.Stats().RecoveredBytes) / mib
		for _, r := range recs {
			compacted += float64(len(r.Payload)) / mib
		}
		start = time.Now()
		err = st.Compact(recs)
		compact += time.Since(start)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		stride := max(1, len(recs)/appendSamples)
		for i := 0; i < len(recs); i += stride {
			payloads = append(payloads, recs[i].Payload)
		}
	}
	dir := filepath.Join(e.dir, "append-replay")
	if err := mkdirFresh(dir); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{SyncInterval: storeSync})
	if err != nil {
		return err
	}
	appends := make([]time.Duration, 0, len(payloads))
	for _, p := range payloads {
		start := time.Now()
		err = st.Append(store.Record{Kind: "run", Payload: p})
		appends = append(appends, time.Since(start))
		if err != nil {
			break
		}
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	m := e.layers
	m.set("store.append_us_p50", float64(percentile(appends, 50))/float64(time.Microsecond))
	m.set("store.compact_ms_per_mb", ratio(ms(compact), compacted))
	m.set("store.recover_ms_per_mb", ratio(ms(open), recovered))
	e.rep.Samples["store.append"] = len(appends)
	return err
}

// appendSamples bounds the store replay's appends.
const appendSamples = 512

// layerTime is one span name's part of the ops' latency.
type layerTime struct {
	// MedianMS is the span's mean self time per op over the ops whose
	// latency lies between the 40th and 60th percentiles, and MedianShare
	// its fraction of their latency: the decomposition of latency_p50_ms.
	// The Tail fields are the same over the ops at or above the 99th
	// percentile: the decomposition of latency_p99_ms.
	MedianMS    float64 `json:"median_ms"`
	MedianShare float64 `json:"median_share"`
	TailMS      float64 `json:"tail_ms"`
	TailShare   float64 `json:"tail_share"`
}

// finishTrace reports each span name's self time (see selfTimes) over the
// median and tail ops, and writes the spans to
// <trace dir>/<workload>.spans.jsonl. The "op" span's own self time is the
// remainder no layer's span explains.
func (e *env) finishTrace(spans []span, win *window) error {
	self := selfTimes(spans)
	lat := win.succeeded()
	lo, hi, p99 := percentile(lat, 40), percentile(lat, 60), percentile(lat, 99)
	type group struct {
		ops    int
		total  time.Duration
		bySpan map[string]time.Duration
	}
	median, tail := group{bySpan: map[string]time.Duration{}}, group{bySpan: map[string]time.Duration{}}
	for k, s := range spans {
		i := int(s.Trace)
		if i < 0 || i >= len(win.ran) || !win.ok(i) {
			continue
		}
		for _, g := range []*group{&median, &tail} {
			if (g == &median && (win.lat[i] < lo || win.lat[i] > hi)) || (g == &tail && win.lat[i] < p99) {
				continue
			}
			g.bySpan[s.Name] += self[k]
			if s.Name == "op" {
				g.ops++
				g.total += s.dur()
			}
		}
	}
	e.rep.Decomposition = map[string]layerTime{}
	for name := range median.bySpan {
		e.rep.Decomposition[name] = layerTime{
			MedianMS:    ratio(ms(median.bySpan[name]), float64(median.ops)),
			MedianShare: ratio(float64(median.bySpan[name]), float64(median.total)),
			TailMS:      ratio(ms(tail.bySpan[name]), float64(tail.ops)),
			TailShare:   ratio(float64(tail.bySpan[name]), float64(tail.total)),
		}
	}
	return writeSpans(filepath.Join(e.traceDir, e.rep.Workload+".spans.jsonl"), spans)
}
