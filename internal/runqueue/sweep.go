package runqueue

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/metrics"
	"pdpasim/internal/obs"
	"pdpasim/internal/store"
	"pdpasim/internal/sweep"
)

// SweepSpec is a sweep submission: the policy × mix × load × seed grid
// pdpasim.Sweep runs in process, expressed as a batch of member runs. It is
// the wire grid (client.SweepSpec) with the expansion methods attached.
// Every member flows through the pool's ordinary machinery — the PDPA-style
// MPL admission rule, the canonical-config result cache, and singleflight
// deduplication — so overlapping sweeps share simulations instead of
// repeating them.
type SweepSpec client.SweepSpec

// withDefaults makes the grid defaults explicit (loads {1.0}, seeds {0}):
// the resolved form a sweep is recorded, expanded and reported in.
func (s SweepSpec) withDefaults() SweepSpec {
	if len(s.Loads) == 0 {
		s.Loads = []float64{1.0}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{0}
	}
	return s
}

// Members expands the grid into one Spec per run, cells enumerated mixes →
// loads → policies with each cell's seeds contiguous — the same order the
// in-process engine uses, so the aggregated cells line up.
func (s SweepSpec) Members() []Spec {
	s = s.withDefaults()
	var out []Spec
	for _, mix := range s.Mixes {
		for _, load := range s.Loads {
			for _, pol := range s.Policies {
				for _, seed := range s.Seeds {
					opts := s.Options
					opts.Policy = pol
					opts.Seed = seed
					out = append(out, Spec{
						Workload: WorkloadSpec{
							Mix: mix, Load: load, NCPU: s.NCPU,
							WindowS: s.WindowS, Seed: seed,
							UniformRequest: s.UniformRequest,
						},
						Options: opts,
					})
				}
			}
		}
	}
	return out
}

// Validate checks the whole grid: every member must be individually valid.
func (s SweepSpec) Validate() error {
	if len(s.Policies) == 0 {
		return fmt.Errorf("runqueue: sweep needs at least one policy")
	}
	if len(s.Mixes) == 0 {
		return fmt.Errorf("runqueue: sweep needs at least one mix")
	}
	for _, m := range s.Members() {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SweepCell is one aggregated grid cell in a sweep's status.
type SweepCell = sweep.Cell

// SweepHooks are the steps of a sweep's lifecycle each backend takes its own
// way. A SweepIndex never calls them while holding its lock.
type SweepHooks struct {
	// Admit admits every member of a grid atomically — the whole batch or
	// nothing — and returns the member run IDs in grid order with the
	// cache-hit and dedup counts (the ID is the index's to fill).
	Admit func(ctx context.Context, members []Spec, deadlineS float64) (client.SweepSubmitResult, error)
	// Members reports each member run's state, in the order given.
	Members func(ctx context.Context, runIDs []string) []SweepMember
	// Cancel cancels one member run; unknown and terminal runs are skipped.
	Cancel func(ctx context.Context, runID string)
}

// SweepIndex is the sweep half of a server.Backend, written once for the
// pool and the fleet coordinator, which embed it: grid validation and
// expansion, sweep IDs for accepted sweeps, the sweep journal and its
// recovery, lookups, listings, views and cancel. The backend supplies the
// steps that differ as SweepHooks. Lock order is backend → index: a backend may call in under
// its own lock (its compaction does); the index never calls a hook under its.
type SweepIndex struct {
	hooks       SweepHooks
	st          *store.Store // nil: in memory only
	kind        string       // the record kind of a sweep in st
	storeErrors *obs.Counter

	mu    sync.Mutex
	seq   uint64
	byID  map[string]*sweepRecord
	order []*sweepRecord // submission order
}

// NewSweepIndex returns an empty index journaling accepted sweeps to st as
// records of the given kind (st may be nil). Failed appends count in
// storeErrors.
func NewSweepIndex(kind string, st *store.Store, storeErrors *obs.Counter, hooks SweepHooks) *SweepIndex {
	return &SweepIndex{hooks: hooks, st: st, kind: kind, storeErrors: storeErrors, byID: map[string]*sweepRecord{}}
}

// SubmitSweep validates the grid, has the backend admit its members as one
// batch, and records the accepted sweep under a fresh ID.
func (x *SweepIndex) SubmitSweep(ctx context.Context, req client.SubmitSweepRequest) (client.SweepSubmitResult, error) {
	spec := SweepSpec(req.SweepSpec)
	if err := spec.Validate(); err != nil {
		return client.SweepSubmitResult{}, err
	}
	resolved := spec.withDefaults()
	res, err := x.hooks.Admit(ctx, resolved.Members(), req.DeadlineS)
	if err != nil {
		return client.SweepSubmitResult{}, err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.seq++
	rec := &sweepRecord{
		ID:        fmt.Sprintf("sweep-%06d", x.seq),
		Spec:      resolved,
		RunIDs:    res.RunIDs,
		Submitted: time.Now(),
	}
	x.byID[rec.ID] = rec
	x.order = append(x.order, rec)
	if x.st != nil {
		if payload, err := json.Marshal(rec); err != nil || x.st.Append(store.Record{Kind: x.kind, Payload: payload}) != nil {
			x.storeErrors.Inc()
		}
	}
	res.ID = rec.ID
	return res, nil
}

func (x *SweepIndex) lookup(id string) (*sweepRecord, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	rec, ok := x.byID[id]
	if !ok {
		return nil, ErrNotFound
	}
	return rec, nil
}

func (x *SweepIndex) view(ctx context.Context, rec *sweepRecord, detail bool) client.SweepView {
	return rec.Spec.View(rec.ID, rec.Submitted, x.hooks.Members(ctx, rec.RunIDs), detail)
}

// Sweep returns a sweep's status, with its member run IDs and — once every
// member is done — its per-cell aggregates.
func (x *SweepIndex) Sweep(ctx context.Context, id string) (client.SweepView, error) {
	rec, err := x.lookup(id)
	if err != nil {
		return client.SweepView{}, err
	}
	return x.view(ctx, rec, true), nil
}

// Sweeps lists every known sweep's status, newest first, without member
// IDs or cells.
func (x *SweepIndex) Sweeps(ctx context.Context) []client.SweepView {
	x.mu.Lock()
	recs := append([]*sweepRecord(nil), x.order...)
	x.mu.Unlock()
	out := make([]client.SweepView, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		out = append(out, x.view(ctx, recs[i], false))
	}
	return out
}

// CancelSweep cancels every member through the backend and returns the
// sweep's status. Members shared with other submissions (deduplicated runs)
// are cancelled too — there is no per-subscriber reference counting.
func (x *SweepIndex) CancelSweep(ctx context.Context, id string) (client.SweepView, error) {
	rec, err := x.lookup(id)
	if err != nil {
		return client.SweepView{}, err
	}
	for _, runID := range rec.RunIDs {
		x.hooks.Cancel(ctx, runID)
	}
	return x.view(ctx, rec, false), nil
}

// RecoverSweeps takes x's records out of a store's recovered stream — the
// latest record per sweep ID wins, in first-seen order, and the ID sequence
// continues past the highest one — and returns the records left for the
// backend, how many sweeps it recovered, and how many of its records it
// could not decode (the backend counts and reports those with its own). It
// runs before the backend serves.
func RecoverSweeps(x *SweepIndex, recs []store.Record) (rest []store.Record, recovered, dropped int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, rec := range recs {
		if rec.Kind != x.kind {
			rest = append(rest, rec)
			continue
		}
		var sr sweepRecord
		if err := json.Unmarshal(rec.Payload, &sr); err != nil || sr.ID == "" {
			dropped++
			continue
		}
		if old, ok := x.byID[sr.ID]; ok {
			*old = sr
			continue
		}
		x.byID[sr.ID] = &sr
		x.order = append(x.order, &sr)
		if n, ok := SeqOf(sr.ID, "sweep-"); ok && n > x.seq {
			x.seq = n
		}
	}
	return rest, len(x.order), dropped
}

// CompactStore rewrites x's store down to the backend's live records plus
// x's own. The backend calls it under its own lock; holding the index's
// lock across the rewrite keeps a sweep accepted meanwhile from being
// journaled into the generation the compaction retires.
func CompactStore(x *SweepIndex, live []store.Record) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, rec := range x.order {
		if payload, err := json.Marshal(rec); err == nil {
			live = append(live, store.Record{Kind: x.kind, Payload: payload})
		}
	}
	return x.st.Compact(live)
}

// sweepRecord is one accepted sweep, in memory and in the journal: the
// resolved grid and its member run IDs in grid order. Member state lives in
// the member runs. Immutable once recorded.
type sweepRecord struct {
	ID        string    `json:"id"`
	Spec      SweepSpec `json:"spec"`
	RunIDs    []string  `json:"run_ids"`
	Submitted time.Time `json:"submitted"`
}

// admitSweep is the pool's batch admission: capacity and shed pre-checks,
// then every member through submitLocked, all under one lock, so the batch
// is accepted whole or not at all. Members resolved against the cache and
// singleflight index count as accepted. The admission controller then
// starts members under the same PDPA-MPL rule as individually submitted
// runs; the deadline applies to each member individually.
func (p *Pool) admitSweep(ctx context.Context, members []Spec, deadlineS float64) (client.SweepSubmitResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return client.SweepSubmitResult{}, ErrDraining
	}
	// Capacity pre-check so a too-large sweep is shed whole instead of
	// enqueueing a truncated grid. Members already cached, deduplicated, or
	// duplicated inside the sweep need no queue slot; counting every
	// remaining member as fresh over-estimates, never under-estimates.
	fresh := 0
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		key := m.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if p.runs.Owner(key) == nil {
			fresh++
		}
	}
	if len(p.queue)+fresh > p.cfg.QueueLimit {
		return client.SweepSubmitResult{}, p.shedLocked()
	}

	res := client.SweepSubmitResult{RunIDs: make([]string, 0, len(members))}
	for _, m := range members {
		sub, err := p.submitLocked(m, seconds(deadlineS))
		if err != nil {
			// Unreachable after the pre-checks; fail loudly if it ever isn't.
			panic("runqueue: sweep member rejected after capacity check: " + err.Error())
		}
		res.RunIDs = append(res.RunIDs, sub.ID)
		if sub.CacheHit {
			res.CacheHits++
		}
		if sub.Deduped {
			res.Deduped++
		}
	}
	p.admitLocked()
	return res, nil
}

// sweepMembers reads the members' states from the pool's run map.
func (p *Pool) sweepMembers(ctx context.Context, runIDs []string) []SweepMember {
	p.mu.Lock()
	defer p.mu.Unlock()
	members := make([]SweepMember, len(runIDs))
	for i, runID := range runIDs {
		r := p.runs.Get(runID)
		if r == nil {
			members[i] = SweepMember{ID: runID, Missing: true}
			continue
		}
		members[i] = SweepMember{ID: runID, State: r.State, Result: r.Result}
		if r.err != nil {
			members[i].Err = r.err.Error()
		}
	}
	return members
}

// SweepMember is one member run as a sweep's status sees it.
type SweepMember struct {
	ID    string
	State State
	// Err is the member's failure message, if any.
	Err string
	// Result is the member's Outcome JSON once Done.
	Result []byte
	// Missing marks a member whose record is gone (evicted from history):
	// its result is lost and the sweep can no longer be aggregated.
	Missing bool
}

// View aggregates a sweep's status from its members, given in grid order —
// the one state machine every backend reports sweeps with. State is
// "failed" or "canceled" if any member ended that way, "done" when all
// succeeded, else "running" ("queued" until the first member starts).
// Errors collects member failure messages in grid order. With detail the
// view carries the member run IDs and, once every member is done, the
// per-cell aggregates (mean, stddev, 95% CI over the seed replicates),
// computed exactly as the in-process engine computes them. The spec must
// have its defaults resolved.
func (s SweepSpec) View(id string, submitted time.Time, members []SweepMember, detail bool) client.SweepView {
	v := client.SweepView{
		ID:          id,
		State:       string(Queued),
		Total:       len(members),
		SubmittedAt: submitted,
		Spec:        client.SweepSpec(s),
	}
	if detail {
		for _, m := range members {
			v.RunIDs = append(v.RunIDs, m.ID)
		}
	}
	allDone := true
	anyStarted := false
	var exports []metrics.Export
	for _, m := range members {
		if m.Missing {
			v.Errors = append(v.Errors, fmt.Sprintf("%s: evicted from history", m.ID))
			v.State = string(Failed)
			return v
		}
		if m.State != Queued {
			anyStarted = true
		}
		if m.State.Terminal() {
			v.Done++
		}
		switch m.State {
		case Done:
			if allDone {
				var ex metrics.Export
				if err := json.Unmarshal(m.Result, &ex); err != nil {
					v.Errors = append(v.Errors, fmt.Sprintf("%s: decoding result: %v", m.ID, err))
					v.State = string(Failed)
					return v
				}
				exports = append(exports, ex)
			}
		case Failed:
			allDone = false
			v.State = string(Failed)
			if m.Err != "" {
				v.Errors = append(v.Errors, fmt.Sprintf("%s: %s", m.ID, m.Err))
			}
		case Canceled:
			allDone = false
			if v.State != string(Failed) {
				v.State = string(Canceled)
			}
		default:
			allDone = false
		}
	}
	if v.State == string(Queued) && anyStarted {
		v.State = string(Running)
	}
	if !allDone {
		return v
	}
	v.State = string(Done)
	if !detail {
		return v
	}
	// Aggregate exactly as the in-process engine does: cells in grid order,
	// each over its contiguous block of seed replicates.
	var cells []SweepCell
	nseeds := len(s.Seeds)
	i := 0
	for _, mix := range s.Mixes {
		for _, load := range s.Loads {
			for _, pol := range s.Policies {
				cells = append(cells, sweep.Summarize(
					canonicalPolicy(pol), mix, load, s.Seeds, exports[i:i+nseeds]))
				i += nseeds
			}
		}
	}
	raw, err := json.Marshal(cells)
	if err != nil {
		v.Errors = append(v.Errors, fmt.Sprintf("encoding cells: %v", err))
		v.State = string(Failed)
		return v
	}
	v.Cells = raw
	return v
}

// canonicalPolicy renders the policy name as the simulator reports it, so
// sweep cells match the "policy" field of the member results.
func canonicalPolicy(pol string) string {
	if p, err := pdpasim.ParsePolicy(pol); err == nil {
		return string(p)
	}
	return pol
}
