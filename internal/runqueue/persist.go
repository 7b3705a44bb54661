package runqueue

// The pool's persistence schema over internal/store: the run ledger
// (ledger.go) appends every run that reaches a terminal state to the journal
// as one runRecord, erases a run its bounded history forgets with a "del"
// record, and compacts and recovers them; the sweep index journals accepted
// sweeps as "sweep" records beside them. A restarted pool rebuilds
// its run history, which is its result cache, and its sweep index from the
// recovered records, so a kill -9 loses at most the in-flight work, never a
// completed result.
// A run's record holds its result, not its decision trace, which Pool.Trace
// derives from the spec on read; records written when the trace was stored
// still carry it, and a recovered run serves those bytes. Result and trace
// bytes are carried as []byte (base64 on the wire), which keeps the
// recovered outcome JSON byte-identical to what the pool served before the
// crash — the property that makes recovered results cache-substitutable
// for fresh simulations.

import (
	"encoding/json"
	"errors"
	"time"

	"pdpasim/internal/store"
)

// Record kinds in the store.
const (
	kindRun   = "run"
	kindDel   = "del"
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
	// Result holds the exact serialized bytes the run produced. Trace is
	// set only on a run recovered from a record that stored its decision
	// trace; new records leave it out.
	Result []byte `json:"result,omitempty"`
	Trace  []byte `json:"trace,omitempty"`
}

// record is the run's journal record, its durable part with the error
// message, or nil until the run is terminal.
func (r *run) record() any {
	if !r.State.Terminal() {
		return nil
	}
	rec := r.runRecord
	if r.err != nil {
		rec.Error = r.err.Error()
	}
	return rec
}

// decodeRun rebuilds a terminal run from its journal record.
func decodeRun(payload []byte) (id, key string, r *run, err error) {
	r = &run{}
	if err := json.Unmarshal(payload, &r.runRecord); err != nil {
		return "", "", nil, err
	}
	if !r.State.Terminal() {
		return "", "", nil, errors.New("runqueue: recovered run is not terminal")
	}
	if r.Error != "" {
		r.err = errors.New(r.Error)
	}
	return r.ID, r.Key, r, nil
}

// rehydrate rebuilds the pool from recovered records: the sweep index and
// the run ledger take theirs, and the recovered done runs answer repeats as
// live ones do. It runs inside New, before the pool accepts work, so no
// locking is needed. Undecodable records count as store errors, runs the
// history bound drops as store evictions.
func (p *Pool) rehydrate(recs []store.Record) {
	recs, _, sweepsDropped := RecoverSweeps(p.SweepIndex, recs)
	_, _, dropped, evicted := p.runs.Recover(recs)
	p.met.storeErrors.Add(uint64(sweepsDropped + dropped))
	p.met.storeEvicted.Add(uint64(evicted))
}
