package runqueue

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/metrics"
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

func (s SweepSpec) withDefaults() SweepSpec {
	if len(s.Loads) == 0 {
		s.Loads = []float64{1.0}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{0}
	}
	return s
}

// WithDefaults returns the spec with the grid defaults made explicit
// (loads {1.0}, seeds {0}) — the resolved form statuses report and the
// fleet coordinator shards.
func (s SweepSpec) WithDefaults() SweepSpec { return s.withDefaults() }

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

// sweepRec is the pool's record of one submitted sweep. Immutable after
// creation; member state lives in the member runs.
type sweepRec struct {
	id        string
	spec      SweepSpec // defaults resolved
	runIDs    []string  // one per member, grid order
	submitted time.Time
}

// SweepCell is one aggregated grid cell in a sweep's status.
type SweepCell = sweep.Cell

// SubmitSweep atomically submits every member of the grid: either the whole
// batch is accepted (members resolved against the cache and singleflight
// index count as accepted) or nothing is enqueued. The admission controller
// then starts members under the same PDPA-MPL rule as individually submitted
// runs. The request's deadline applies to each member individually.
func (p *Pool) SubmitSweep(ctx context.Context, req client.SubmitSweepRequest) (client.SweepSubmitResult, error) {
	spec := SweepSpec(req.SweepSpec)
	if err := spec.Validate(); err != nil {
		return client.SweepSubmitResult{}, err
	}
	resolved := spec.withDefaults()
	members := resolved.Members()
	deadline := seconds(req.DeadlineS)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return client.SweepSubmitResult{}, ErrDraining
	}
	// Capacity pre-check so a too-large sweep fails atomically instead of
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
		if _, ok := p.byKey[key]; !ok {
			fresh++
		}
	}
	if len(p.queue)+fresh > p.cfg.QueueLimit {
		return client.SweepSubmitResult{}, ErrQueueFull
	}
	// Load shedding applies to the batch as a whole: were any member going
	// to land past the shed depth, submitLocked would reject it mid-batch —
	// shed the sweep up front instead, keeping batch admission atomic.
	if p.cfg.ShedDepth > 0 && len(p.queue)+fresh > p.cfg.ShedDepth {
		p.met.sheds.Inc()
		return client.SweepSubmitResult{}, &OverloadError{Depth: len(p.queue), RetryAfter: p.retryAfterLocked()}
	}

	res := client.SweepSubmitResult{RunIDs: make([]string, 0, len(members))}
	for _, m := range members {
		sub, err := p.submitLocked(m, deadline)
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
	p.sweepSeq++
	rec := &sweepRec{
		id:        fmt.Sprintf("sweep-%06d", p.sweepSeq),
		spec:      resolved,
		runIDs:    res.RunIDs,
		submitted: time.Now(),
	}
	if p.sweeps == nil {
		p.sweeps = make(map[string]*sweepRec)
	}
	p.sweeps[rec.id] = rec
	p.persistSweepLocked(rec)
	res.ID = rec.id
	p.admitLocked()
	return res, nil
}

// Sweep returns a sweep's status, with its member run IDs and — once every
// member is done — its per-cell aggregates.
func (p *Pool) Sweep(ctx context.Context, id string) (client.SweepView, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec, ok := p.sweeps[id]
	if !ok {
		return client.SweepView{}, ErrNotFound
	}
	return p.sweepViewLocked(rec, true), nil
}

// Sweeps lists every known sweep's status, newest first, without member
// IDs or cells.
func (p *Pool) Sweeps(ctx context.Context) []client.SweepView {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]client.SweepView, 0, len(p.sweeps))
	for _, rec := range p.sweeps {
		out = append(out, p.sweepViewLocked(rec, false))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// CancelSweep cancels every non-terminal member. Members shared with other
// submissions (deduplicated runs) are cancelled too — the pool has no
// per-subscriber reference counting.
func (p *Pool) CancelSweep(ctx context.Context, id string) (client.SweepView, error) {
	p.mu.Lock()
	rec, ok := p.sweeps[id]
	if !ok {
		p.mu.Unlock()
		return client.SweepView{}, ErrNotFound
	}
	ids := append([]string(nil), rec.runIDs...)
	p.mu.Unlock()
	for _, runID := range ids {
		p.Cancel(runID) // unknown IDs (evicted history) are skipped below
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sweepViewLocked(rec, false), nil
}

func (p *Pool) sweepViewLocked(rec *sweepRec, detail bool) client.SweepView {
	members := make([]SweepMember, len(rec.runIDs))
	for i, runID := range rec.runIDs {
		r, ok := p.runs[runID]
		if !ok {
			members[i] = SweepMember{ID: runID, Missing: true}
			continue
		}
		members[i] = SweepMember{ID: runID, State: r.state, Result: r.resultJSON}
		if r.err != nil {
			members[i].Err = r.err.Error()
		}
	}
	return rec.spec.View(rec.id, rec.submitted, members, detail)
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
