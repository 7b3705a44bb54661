package runqueue

// The pool's v1 face: the run calls internal/server's Backend interface
// makes, in the client wire types. They are thin renderings of the
// snapshot-level API in runqueue.go (Submit, Get, Cancel) and of each run's
// lifecycle event chain (FollowRun). The
// sweep calls are promoted from the pool's embedded SweepIndex (sweep.go),
// the one the fleet coordinator embeds too.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"pdpasim"
	"pdpasim/client"
)

// notFoundError is a lookup failure with its own message; errors.Is matches
// ErrNotFound.
type notFoundError struct{ msg string }

func (e *notFoundError) Error() string        { return e.msg }
func (e *notFoundError) Is(target error) bool { return target == ErrNotFound }

// seconds converts a wire duration in seconds.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// view renders the snapshot in its wire form; the result rides along only
// with withResult.
func (s Snapshot) view(withResult bool) client.RunView {
	v := client.RunView{
		ID:          s.ID,
		State:       string(s.State),
		SubmittedAt: s.Submitted,
		CacheKey:    s.Key,
		Spec:        client.Spec(s.Spec),
	}
	if s.Err != nil {
		v.Error = s.Err.Error()
	}
	if !s.Started.IsZero() {
		t := s.Started
		v.StartedAt = &t
	}
	if !s.Finished.IsZero() {
		t := s.Finished
		v.FinishedAt = &t
		if !s.Started.IsZero() {
			v.WallSeconds = s.Finished.Sub(s.Started).Seconds()
		}
	}
	if withResult {
		v.Result = s.ResultJSON
	}
	return v
}

// SubmitRun submits one run from its wire request (see Submit).
func (p *Pool) SubmitRun(ctx context.Context, req client.SubmitRunRequest) (client.SubmitResult, error) {
	res, err := p.Submit(Spec{Workload: req.Workload, Options: req.Options}, seconds(req.DeadlineS))
	if err != nil {
		return client.SubmitResult{}, err
	}
	return client.SubmitResult{ID: res.ID, State: string(res.State), CacheHit: res.CacheHit, Deduped: res.Deduped}, nil
}

// Run returns a run's view, its result included once done.
func (p *Pool) Run(ctx context.Context, id string) (client.RunView, error) {
	snap, err := p.Get(id)
	if err != nil {
		return client.RunView{}, err
	}
	return snap.view(true), nil
}

// CancelRun cancels a run (see Cancel) and returns its view at return.
func (p *Pool) CancelRun(ctx context.Context, id string) (client.RunView, error) {
	snap, err := p.Cancel(id)
	if err != nil {
		return client.RunView{}, err
	}
	return snap.view(false), nil
}

// ListRuns returns every known run's view, newest first, without results.
func (p *Pool) ListRuns(ctx context.Context) []client.RunView {
	runs := p.Runs()
	views := make([]client.RunView, len(runs))
	for i, snap := range runs {
		views[i] = snap.view(false)
	}
	return views
}

// FollowRun calls emit with each lifecycle event of a run, from the one
// that put it in its current state through the terminal one, or until ctx
// ends; it fails before emitting anything when the run is unknown. The
// chain is walked without the pool lock (RunEvent.Follow).
func (p *Pool) FollowRun(ctx context.Context, id string, emit func(client.Event)) error {
	p.mu.Lock()
	ev := p.runs.Events(id)
	p.mu.Unlock()
	if ev == nil {
		return ErrNotFound
	}
	return ev.Follow(ctx, emit)
}

// Trace returns a done run's decision trace ({"events": [...], "dropped":
// n}, the pdpasim.DecisionTrace JSON schema, at most TraceLimit events). It
// is derived, not stored: the simulator is deterministic, so re-simulating
// the run's spec with tracing on records the trace the run made. At most
// BaseWorkers traces are derived at once; the wait for a slot ends with ctx,
// and the derivation itself is bounded by ctx and RunTimeout, like an attempt.
// A run recovered from a store record that still carries its trace serves
// those bytes as recorded. A run that is not done, or a pool with tracing
// disabled, has none (ErrNotFound).
func (p *Pool) Trace(ctx context.Context, id string) ([]byte, error) {
	p.mu.Lock()
	r := p.runs.Get(id)
	var rec runRecord
	if r != nil {
		rec = r.runRecord
	}
	p.mu.Unlock()
	switch {
	case r == nil:
		return nil, ErrNotFound
	case len(rec.Trace) > 0:
		return rec.Trace, nil
	case rec.State != Done || p.cfg.TraceLimit < 0:
		return nil, &notFoundError{fmt.Sprintf("run %s has no decision trace (state %s; tracing may be disabled)", rec.ID, rec.State)}
	}
	select {
	case p.traceSlots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-p.traceSlots }()
	sctx := ctx
	if p.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, p.cfg.RunTimeout)
		defer cancel()
	}
	ws, opts := rec.Spec.Facade()
	opts.DecisionTrace = p.cfg.TraceLimit
	out, err := pdpasim.RunContext(sctx, ws, opts)
	if err != nil {
		if ctx.Err() == nil && errors.Is(sctx.Err(), context.DeadlineExceeded) {
			err = fmt.Errorf("no result within run timeout %v: %w", p.cfg.RunTimeout, ErrRunTimeout)
		}
		return nil, fmt.Errorf("runqueue: deriving the decision trace of run %s: %w", rec.ID, err)
	}
	var buf bytes.Buffer
	if err := out.DecisionTrace().WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Health reports the pool's admission state: draining or ok, plus its
// queue depth and running simulations.
func (p *Pool) Health() client.Health {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := client.Health{Status: "ok", Queue: len(p.queue), Inflight: len(p.running)}
	if p.draining {
		h.Status = "draining"
	}
	return h
}
