package runqueue

// The pool's persistence schema over internal/store: every run that reaches
// a terminal state is appended to the journal as one runRecord (the sweep
// index journals accepted sweeps as "sweep" records beside them), and a
// restarted pool rehydrates its result cache, run history, and sweep index
// from the recovered records —
// so a kill -9 loses at most the in-flight work, never a completed result.
// Result and trace bytes are carried as []byte (base64 on the wire), which
// keeps the recovered outcome JSON byte-identical to what the pool served
// before the crash — the property that makes recovered results
// cache-substitutable for fresh simulations.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pdpasim/internal/store"
)

// Record kinds in the store.
const (
	kindRun   = "run"
	kindSweep = "sweep"
)

// runRecord is the durable form of one terminal run.
type runRecord struct {
	ID        string    `json:"id"`
	Key       string    `json:"key"`
	Spec      Spec      `json:"spec"`
	State     State     `json:"state"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished"`
	// Result and Trace hold the exact serialized bytes the run produced.
	Result []byte `json:"result,omitempty"`
	Trace  []byte `json:"trace,omitempty"`
}

func (r *run) record() runRecord {
	rec := runRecord{
		ID:        r.id,
		Key:       r.key,
		Spec:      r.spec,
		State:     r.state,
		Submitted: r.submitted,
		Started:   r.started,
		Finished:  r.finished,
		Result:    r.resultJSON,
		Trace:     r.traceJSON,
	}
	if r.err != nil {
		rec.Error = r.err.Error()
	}
	return rec
}

// persistRunLocked appends a terminal run to the store and triggers a
// compaction when the journal has outgrown its bound. Store failures must
// never fail the run — they are counted and the pool keeps serving from
// memory.
func (p *Pool) persistRunLocked(r *run) {
	if p.cfg.Store == nil {
		return
	}
	payload, err := json.Marshal(r.record())
	if err != nil {
		p.met.storeErrors.Inc()
		return
	}
	if err := p.cfg.Store.Append(store.Record{Kind: kindRun, Payload: payload}); err != nil {
		p.met.storeErrors.Inc()
		return
	}
	p.maybeCompactLocked()
}

// maybeCompactLocked rewrites the store from the live record set once the
// journal exceeds the configured bound, dropping history-evicted runs from
// disk. Compaction is rare (it runs once per StoreCompactBytes of journal
// growth) and the snapshot fsync is the only heavy step.
func (p *Pool) maybeCompactLocked() {
	if p.cfg.Store.JournalBytes() < p.cfg.StoreCompactBytes {
		return
	}
	if err := CompactStore(p.SweepIndex, p.liveRecordsLocked()); err != nil {
		p.met.storeErrors.Inc()
	}
}

// liveRecordsLocked serializes the pool's terminal runs still addressable,
// in history order so recovery replays oldest first; the sweep index adds
// its own records in Compact.
func (p *Pool) liveRecordsLocked() []store.Record {
	var out []store.Record
	for _, id := range p.history {
		r, ok := p.runs[id]
		if !ok || !r.state.Terminal() {
			continue
		}
		if payload, err := json.Marshal(r.record()); err == nil {
			out = append(out, store.Record{Kind: kindRun, Payload: payload})
		}
	}
	return out
}

// rehydrate rebuilds the pool's terminal-run state from recovered records.
// It runs inside New, before the pool accepts work, so no locking is
// needed. Recovered runs re-enter the result cache and history under the
// same bounds as live ones: cache overflow counts cache evictions, history
// overflow counts store evictions.
func (p *Pool) rehydrate(recs []store.Record) {
	for _, rec := range recs {
		if rec.Kind != kindRun {
			continue
		}
		var rr runRecord
		if err := json.Unmarshal(rec.Payload, &rr); err != nil || rr.ID == "" || !rr.State.Terminal() {
			p.met.storeErrors.Inc()
			continue
		}
		if _, exists := p.runs[rr.ID]; exists {
			continue
		}
		r := &run{
			id:         rr.ID,
			key:        rr.Key,
			spec:       rr.Spec,
			state:      rr.State,
			submitted:  rr.Submitted,
			started:    rr.Started,
			finished:   rr.Finished,
			resultJSON: rr.Result,
			traceJSON:  rr.Trace,
			done:       closedChan,
		}
		if rr.Error != "" {
			r.err = errors.New(rr.Error)
		}
		p.runs[r.id] = r
		p.history = append(p.history, r.id)
		if r.state == Done {
			p.byKey[r.key] = r
			p.insertCacheLocked(r)
		}
		if n, ok := seqOf(r.id, "run-"); ok && n > p.seq {
			p.seq = n
		}
	}
	// The recovered history obeys the same bound as a live one; overflow
	// beyond HistoryLimit is dropped (oldest first) and counted.
	before := len(p.history)
	p.evictHistoryLocked()
	if dropped := before - len(p.history); dropped > 0 {
		p.met.storeEvicted.Add(uint64(dropped))
	}
}

// closedChan is the pre-closed done channel recovered terminal runs share.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// seqOf parses the numeric suffix of a "run-%06d" / "sweep-%06d" ID.
func seqOf(id, prefix string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(id, prefix+"%d", &n); err != nil {
		return 0, false
	}
	return n, true
}
