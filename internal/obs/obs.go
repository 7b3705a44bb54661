// Package obs is the observability subsystem: a structured decision-trace
// event stream, a metrics registry with Prometheus text exposition, and
// span-style wall timing.
//
// The decision trace records *why* the scheduler did what it did — every PDPA
// state-machine step with the efficiency measurement that triggered it, every
// multiprogramming-level admission decision with its reason, every machine
// reallocation and IRIX preemption — in deterministic order: events are
// recorded from inside the single-threaded simulation event loop, so a fixed
// seed yields a byte-identical trace.
//
// The subsystem is zero-cost when disabled: producers hold a concrete
// *Trace pointer and guard every Record with a nil check, so a run without an
// observer takes no allocations and no indirect calls on its hot paths (the
// bench gate on BenchmarkSingleRunPDPA/IRIX enforces this).
package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"pdpasim/internal/sim"
)

// Kind identifies what a trace event describes.
type Kind uint8

const (
	// KindRunStart opens a run: Procs is the machine size, Want the job count.
	KindRunStart Kind = iota
	// KindRunEnd closes a run at the last completion time.
	KindRunEnd
	// KindJobArrive is a job entering the queuing system; Procs is its request.
	KindJobArrive
	// KindJobStart is the queuing system launching a job; Procs is its request.
	KindJobStart
	// KindJobDone is a job completing.
	KindJobDone
	// KindReport is a runtime performance measurement reaching the resource
	// manager: Procs, Eff, and Speedup are the measurement.
	KindReport
	// KindPolicyState is one PDPA state-machine step: From/To are core.State
	// values, Procs the allocation the triggering measurement was taken at,
	// Want the allocation the transition decided, Eff/Speedup the measurement.
	KindPolicyState
	// KindExtrapolate is an Equal_efficiency curve refit: Procs and Eff are
	// the triggering measurement, Alpha (the Eff slot of the export) the
	// fitted serialization parameter.
	KindExtrapolate
	// KindAdmit is an MPL admission granting a job a start; Reason says why.
	KindAdmit
	// KindDeny is an MPL admission holding the queue; Reason says why, and
	// Job (when >= 0) names the unsettled application blocking admission.
	KindDeny
	// KindRealloc is a machine partition resize: From/To are the old and new
	// allocations, Want what the policy asked for.
	KindRealloc
	// KindPreempt is the IRIX time-sharing scheduler leaving an application
	// with zero threads on CPUs for a quantum; From is the thread count it
	// ran in the previous quantum.
	KindPreempt
	// KindSweepRun is one completed run inside a sweep (synthesized by the
	// facade's sweep adapter, not recorded by the simulation).
	KindSweepRun
	// KindRunState is a daemon run lifecycle change (synthesized by the pdpad
	// run queue, not recorded by the simulation).
	KindRunState

	kindCount
)

var kindNames = [kindCount]string{
	KindRunStart:    "run_start",
	KindRunEnd:      "run_end",
	KindJobArrive:   "job_arrive",
	KindJobStart:    "job_start",
	KindJobDone:     "job_done",
	KindReport:      "report",
	KindPolicyState: "policy_state",
	KindExtrapolate: "extrapolate",
	KindAdmit:       "admit",
	KindDeny:        "deny",
	KindRealloc:     "realloc",
	KindPreempt:     "preempt",
	KindSweepRun:    "sweep_run",
	KindRunState:    "run_state",
}

// String returns the event kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Reason explains an admission decision.
type Reason uint8

const (
	ReasonNone Reason = iota
	// ReasonBelowBaseMPL: below PDPA's base multiprogramming level admission
	// is unconditional (Section 4.3).
	ReasonBelowBaseMPL
	// ReasonJobsSettled: free processors exist and every running application
	// has settled, so PDPA admits beyond the base level.
	ReasonJobsSettled
	// ReasonNoFreeCPUs: beyond the base level PDPA requires a free processor.
	ReasonNoFreeCPUs
	// ReasonUnsettled: a running application is still searching (NO_REF or
	// INC), so its allocation has not settled.
	ReasonUnsettled
	// ReasonBelowFixedMPL: the queuing system's fixed multiprogramming level
	// has a slot free (the traditional regimes).
	ReasonBelowFixedMPL
	// ReasonFixedMPLFull: the fixed multiprogramming level is reached.
	ReasonFixedMPLFull

	reasonCount
)

var reasonNames = [reasonCount]string{
	ReasonNone:          "",
	ReasonBelowBaseMPL:  "below_base_mpl",
	ReasonJobsSettled:   "jobs_settled",
	ReasonNoFreeCPUs:    "no_free_cpus",
	ReasonUnsettled:     "unsettled_job",
	ReasonBelowFixedMPL: "below_fixed_mpl",
	ReasonFixedMPLFull:  "fixed_mpl_full",
}

// String returns the reason's wire name ("" for ReasonNone).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// policyStateNames mirrors core.State's String values; obs cannot import
// core (core records into obs), so the names are pinned here and by
// TestPolicyStateNames in the core package.
var policyStateNames = [...]string{"NO_REF", "INC", "DEC", "STABLE"}

func policyStateName(s int32) string {
	if s >= 0 && int(s) < len(policyStateNames) {
		return policyStateNames[s]
	}
	return fmt.Sprintf("state(%d)", s)
}

// Event is one decision-trace record. Field meaning depends on Kind (see the
// Kind constants); unused fields are zero. The struct is flat and small so
// recording is one slice append with no per-event allocation.
type Event struct {
	At      sim.Time
	Kind    Kind
	Reason  Reason
	Job     int32 // -1 for events not scoped to a job
	From    int32 // old state (KindPolicyState) or old allocation (KindRealloc) or old thread count (KindPreempt)
	To      int32 // new state (KindPolicyState) or new allocation (KindRealloc)
	Procs   int32 // measurement allocation / request / machine size
	Want    int32 // allocation the decision asked for
	Eff     float64
	Speedup float64 // measurement speedup; fitted alpha for KindExtrapolate
}

// Trace is an append-only decision-trace recorder for one run. It is not
// safe for concurrent use: events are recorded from the single-threaded
// simulation event loop, which is what makes the order — and hence the
// serialized trace — deterministic for a fixed seed.
type Trace struct {
	events  []Event
	seq     int
	limit   int // >0: retain at most limit events; 0: unlimited; <0: stream-only
	dropped int
	sink    func(seq int, e Event)
}

// NewTrace returns a recorder. limit > 0 bounds retained events (later
// events still reach the sink and are counted as dropped); limit == 0
// retains everything; limit < 0 retains nothing (stream-only).
func NewTrace(limit int) *Trace {
	return &Trace{limit: limit}
}

// SetSink installs a streaming callback invoked synchronously for every
// recorded event, including events beyond the retention limit. seq is the
// event's position in the full stream.
func (t *Trace) SetSink(fn func(seq int, e Event)) { t.sink = fn }

// Record appends one event. Callers hold a possibly-nil *Trace and must
// guard with a nil check; Record itself assumes t is non-nil.
func (t *Trace) Record(e Event) {
	seq := t.seq
	t.seq++
	if t.sink != nil {
		t.sink(seq, e)
	}
	switch {
	case t.limit < 0:
		t.dropped++
	case t.limit > 0 && len(t.events) >= t.limit:
		t.dropped++
	default:
		t.events = append(t.events, e)
	}
}

// Events returns the retained events; the i-th event has sequence number i.
// The slice is owned by the trace and must not be mutated.
func (t *Trace) Events() []Event { return t.events }

// Len returns the number of retained events.
func (t *Trace) Len() int { return len(t.events) }

// Dropped returns how many events exceeded the retention limit.
func (t *Trace) Dropped() int { return t.dropped }

// Retains reports whether the trace keeps events (false for stream-only).
func (t *Trace) Retains() bool { return t.limit >= 0 }

// ExportEvent is the wire form of one trace event: the schema of the JSON
// and CSV exports, the facade's TraceEvent, and the pdpad daemon's
// /v1/runs/{id}/trace payload. Field use depends on Kind; unused fields are
// omitted.
type ExportEvent struct {
	// Seq is the event's position in the stream; AtUS the simulation time in
	// microseconds (wall-clock microseconds for daemon-synthesized events).
	Seq  int    `json:"seq"`
	AtUS int64  `json:"at_us"`
	Kind string `json:"kind"`
	// Job is the job id the event concerns, -1 when not job-scoped.
	Job int `json:"job"`
	// From/To are PDPA state names for policy_state events.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Old/New are the allocations around a realloc; Old is the previous
	// thread count for a preempt.
	Old int `json:"old,omitempty"`
	New int `json:"new,omitempty"`
	// Procs is the measurement allocation (report, policy_state,
	// extrapolate), the job's request (job_arrive, job_start), the machine
	// size (run_start), or the running-set size (admit, deny).
	Procs int `json:"procs,omitempty"`
	// Want is the allocation the decision asked for.
	Want    int     `json:"want,omitempty"`
	Eff     float64 `json:"eff,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
	// Alpha is the fitted serialization parameter of an extrapolate event.
	Alpha  float64 `json:"alpha,omitempty"`
	Reason string  `json:"reason,omitempty"`
	// ID and State carry daemon scope: the run id and its lifecycle state
	// for run_state events, the grid point for sweep_run events.
	ID    string `json:"id,omitempty"`
	State string `json:"state,omitempty"`
	// Done/Total report sweep progress on sweep_run events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// Export converts one recorded event to its wire form.
func Export(seq int, e Event) ExportEvent {
	out := ExportEvent{
		Seq:  seq,
		AtUS: int64(e.At) / int64(sim.Microsecond),
		Kind: e.Kind.String(),
		Job:  int(e.Job),
	}
	if e.Reason != ReasonNone {
		out.Reason = e.Reason.String()
	}
	switch e.Kind {
	case KindPolicyState:
		out.From = policyStateName(e.From)
		out.To = policyStateName(e.To)
		out.Procs = int(e.Procs)
		out.Want = int(e.Want)
		out.Eff = e.Eff
		out.Speedup = e.Speedup
	case KindRealloc:
		out.Old = int(e.From)
		out.New = int(e.To)
		out.Want = int(e.Want)
	case KindPreempt:
		out.Old = int(e.From)
	case KindExtrapolate:
		out.Procs = int(e.Procs)
		out.Eff = e.Eff
		out.Alpha = e.Speedup
	default:
		out.Procs = int(e.Procs)
		out.Want = int(e.Want)
		out.Eff = e.Eff
		out.Speedup = e.Speedup
	}
	return out
}

// Export returns the retained events in wire form.
func (t *Trace) Export() []ExportEvent {
	out := make([]ExportEvent, len(t.events))
	for i := range t.events {
		out[i] = Export(i, t.events[i])
	}
	return out
}

// ExportJSON is the JSON document WriteJSON emits.
type ExportJSON struct {
	// Events are the retained events; Dropped counts events beyond the
	// retention limit.
	Events  []ExportEvent `json:"events"`
	Dropped int           `json:"dropped,omitempty"`
}

// WriteJSON writes the trace as one indented JSON document. The output is
// deterministic: the same trace always serializes to the same bytes.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	doc := ExportJSON{Events: t.Export(), Dropped: t.dropped}
	if doc.Events == nil {
		doc.Events = []ExportEvent{}
	}
	return enc.Encode(doc)
}

var csvHeader = []string{
	"seq", "at_us", "kind", "job", "from", "to", "old", "new",
	"procs", "want", "eff", "speedup", "alpha", "reason",
}

// WriteCSV writes the trace as CSV, one row per retained event.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	g := func(v float64) string {
		if v == 0 {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	d := func(v int) string {
		if v == 0 {
			return ""
		}
		return strconv.Itoa(v)
	}
	for i := range t.events {
		e := Export(i, t.events[i])
		row := []string{
			strconv.Itoa(e.Seq), strconv.FormatInt(e.AtUS, 10), e.Kind,
			strconv.Itoa(e.Job), e.From, e.To, d(e.Old), d(e.New),
			d(e.Procs), d(e.Want), g(e.Eff), g(e.Speedup), g(e.Alpha), e.Reason,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteText renders the trace as human-readable lines, one per event — the
// decision-log counterpart of the per-CPU execution trace cmd/traceview
// draws.
func (t *Trace) WriteText(w io.Writer) error {
	for i := range t.events {
		e := &t.events[i]
		if _, err := fmt.Fprintf(w, "%s\n", FormatEvent(i, *e)); err != nil {
			return err
		}
	}
	if t.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(+%d events beyond the retention limit)\n", t.dropped); err != nil {
			return err
		}
	}
	return nil
}

// FormatEvent renders one event as a single human-readable line.
func FormatEvent(seq int, e Event) string {
	at := float64(e.At) / float64(sim.Second)
	job := ""
	if e.Job >= 0 {
		job = fmt.Sprintf(" job %d", e.Job)
	}
	switch e.Kind {
	case KindRunStart:
		return fmt.Sprintf("[%10.3fs] run_start: %d CPUs, %d jobs", at, e.Procs, e.Want)
	case KindRunEnd:
		return fmt.Sprintf("[%10.3fs] run_end", at)
	case KindJobArrive:
		return fmt.Sprintf("[%10.3fs] job_arrive:%s requests %d", at, job, e.Procs)
	case KindJobStart:
		return fmt.Sprintf("[%10.3fs] job_start:%s requests %d", at, job, e.Procs)
	case KindJobDone:
		return fmt.Sprintf("[%10.3fs] job_done:%s", at, job)
	case KindReport:
		return fmt.Sprintf("[%10.3fs] report:%s procs=%d eff=%.3f speedup=%.2f",
			at, job, e.Procs, e.Eff, e.Speedup)
	case KindPolicyState:
		return fmt.Sprintf("[%10.3fs] policy_state:%s %s->%s procs=%d want=%d eff=%.3f",
			at, job, policyStateName(e.From), policyStateName(e.To), e.Procs, e.Want, e.Eff)
	case KindExtrapolate:
		return fmt.Sprintf("[%10.3fs] extrapolate:%s procs=%d eff=%.3f alpha=%.4f",
			at, job, e.Procs, e.Eff, e.Speedup)
	case KindAdmit:
		return fmt.Sprintf("[%10.3fs] admit: %s (running %d)", at, e.Reason, e.Procs)
	case KindDeny:
		return fmt.Sprintf("[%10.3fs] deny: %s%s (running %d)", at, e.Reason, job, e.Procs)
	case KindRealloc:
		return fmt.Sprintf("[%10.3fs] realloc:%s %d->%d (want %d)", at, job, e.From, e.To, e.Want)
	case KindPreempt:
		return fmt.Sprintf("[%10.3fs] preempt:%s had %d threads running", at, job, e.From)
	default:
		return fmt.Sprintf("[%10.3fs] %s:%s", at, e.Kind, job)
	}
}
