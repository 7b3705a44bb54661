package pdpasim

import (
	"io"

	"pdpasim/internal/obs"
)

// TraceEvent is one event of the unified observability stream: the schema of
// decision traces (Outcome.DecisionTrace), live observer callbacks
// (Options.Observer, SweepSpec.Observer), and the pdpad daemon's
// /v1/runs/{id}/trace endpoint. (The daemon's /v1/runs/{id}/events stream
// carries run lifecycle transitions as client.Event, not TraceEvents.)
// Field use depends on Kind; see the obs package for the per-kind contract.
type TraceEvent = obs.ExportEvent

// Observer receives observability events. RunContext streams a run's
// decision trace through it and Sweep streams per-run completions — two
// adapters over the same event schema.
//
// Observe is called synchronously from the producing loop (the simulation
// event loop for runs, the completion path for sweeps): implementations
// must be fast and must not call back into the producer. An Observer used
// with Sweep is called from multiple goroutines and must be safe for
// concurrent use; within one simulation run calls are strictly sequential
// and deterministic.
type Observer interface {
	Observe(TraceEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(TraceEvent)

// Observe implements Observer.
func (f ObserverFunc) Observe(e TraceEvent) { f(e) }

// DecisionTraceUnlimited makes Options.DecisionTrace retain every event.
const DecisionTraceUnlimited = -1

// DecisionTrace is a recorded decision trace: the ordered event stream
// explaining every scheduling decision of one run. Obtain one from
// Outcome.DecisionTrace after running with Options.DecisionTrace set.
//
// For a fixed seed the trace is byte-identical across runs: events are
// recorded from inside the single-threaded simulation event loop in
// (simulation time, record order), and the writers serialize
// deterministically.
type DecisionTrace struct {
	tr *obs.Trace
}

// Events returns the retained events in order; the i-th event has Seq i.
func (d *DecisionTrace) Events() []TraceEvent { return d.tr.Export() }

// Len returns the number of retained events.
func (d *DecisionTrace) Len() int { return d.tr.Len() }

// Dropped returns how many events exceeded the retention limit.
func (d *DecisionTrace) Dropped() int { return d.tr.Dropped() }

// CountKind returns how many retained events have the given kind (a
// TraceEvent.Kind string such as "policy_state" or "realloc").
func (d *DecisionTrace) CountKind(kind string) int {
	n := 0
	for _, e := range d.tr.Events() {
		if e.Kind.String() == kind {
			n++
		}
	}
	return n
}

// WriteJSON writes the trace as one indented JSON document
// ({"events": [...], "dropped": n}) — the same payload the pdpad daemon
// serves at /v1/runs/{id}/trace. Deterministic for a fixed seed.
func (d *DecisionTrace) WriteJSON(w io.Writer) error { return d.tr.WriteJSON(w) }

// WriteCSV writes the trace as CSV, one row per event.
func (d *DecisionTrace) WriteCSV(w io.Writer) error { return d.tr.WriteCSV(w) }

// WriteText renders the trace as human-readable decision-log lines (the
// format cmd/traceview -decisions prints).
func (d *DecisionTrace) WriteText(w io.Writer) error { return d.tr.WriteText(w) }

// newRunTrace builds the internal recorder for one run, or nil when
// observability is off. limit follows Options.DecisionTrace; observer may be
// nil.
func newRunTrace(limit int, observer Observer) *obs.Trace {
	if limit == 0 && observer == nil {
		return nil
	}
	var tr *obs.Trace
	switch {
	case limit > 0:
		tr = obs.NewTrace(limit)
	case limit == DecisionTraceUnlimited:
		tr = obs.NewTrace(0) // unlimited retention
	default:
		tr = obs.NewTrace(-1) // observer only: stream, retain nothing
	}
	if observer != nil {
		tr.SetSink(func(seq int, e obs.Event) { observer.Observe(obs.Export(seq, e)) })
	}
	return tr
}
