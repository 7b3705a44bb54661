package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdpasim/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestTraceRetentionAndSink(t *testing.T) {
	tr := NewTrace(2)
	var seqs []int
	tr.SetSink(func(seq int, e Event) { seqs = append(seqs, seq) })
	for i := 0; i < 5; i++ {
		tr.Record(Event{At: sim.Time(i), Kind: KindReport, Job: int32(i)})
	}
	if tr.Len() != 2 || tr.Dropped() != 3 || tr.seq != 5 {
		t.Fatalf("len=%d dropped=%d total=%d, want 2/3/5", tr.Len(), tr.Dropped(), tr.seq)
	}
	if len(seqs) != 5 || seqs[4] != 4 {
		t.Fatalf("sink saw %v, want all five events", seqs)
	}

	streamOnly := NewTrace(-1)
	streamOnly.Record(Event{Kind: KindReport})
	if streamOnly.Retains() || streamOnly.Len() != 0 || streamOnly.seq != 1 {
		t.Fatalf("stream-only trace retained events")
	}
	unlimited := NewTrace(0)
	for i := 0; i < 100; i++ {
		unlimited.Record(Event{Kind: KindReport})
	}
	if unlimited.Len() != 100 || unlimited.Dropped() != 0 {
		t.Fatalf("unlimited trace len=%d dropped=%d", unlimited.Len(), unlimited.Dropped())
	}
}

func TestExportMapping(t *testing.T) {
	e := Export(7, Event{
		At: 2 * sim.Second, Kind: KindPolicyState, Job: 3,
		From: 0, To: 1, Procs: 8, Want: 12, Eff: 0.93, Speedup: 7.4,
	})
	if e.Seq != 7 || e.AtUS != 2_000_000 || e.Kind != "policy_state" ||
		e.From != "NO_REF" || e.To != "INC" || e.Procs != 8 || e.Want != 12 {
		t.Fatalf("policy_state export wrong: %+v", e)
	}
	re := Export(0, Event{Kind: KindRealloc, Job: 2, From: 12, To: 16, Want: 20})
	if re.Old != 12 || re.New != 16 || re.Want != 20 || re.From != "" {
		t.Fatalf("realloc export wrong: %+v", re)
	}
	ex := Export(0, Event{Kind: KindExtrapolate, Job: 1, Procs: 4, Eff: 0.8, Speedup: 0.05})
	if ex.Alpha != 0.05 || ex.Speedup != 0 {
		t.Fatalf("extrapolate export wrong: %+v", ex)
	}
	de := Export(0, Event{Kind: KindDeny, Reason: ReasonUnsettled, Job: 5, Procs: 4})
	if de.Reason != "unsettled_job" || de.Job != 5 {
		t.Fatalf("deny export wrong: %+v", de)
	}
}

func TestTraceSerializationDeterminism(t *testing.T) {
	build := func() *Trace {
		tr := NewTrace(0)
		tr.Record(Event{At: 0, Kind: KindRunStart, Job: -1, Procs: 60, Want: 10})
		tr.Record(Event{At: sim.Second, Kind: KindAdmit, Reason: ReasonBelowBaseMPL, Job: -1, Procs: 0})
		tr.Record(Event{At: sim.Second, Kind: KindPolicyState, Job: 0, From: 0, To: 3, Procs: 8, Want: 8, Eff: 0.7321, Speedup: 5.857})
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSON serialization not deterministic")
	}
	var c bytes.Buffer
	if err := build().WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(c.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header+3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "seq,at_us,kind,job") {
		t.Fatalf("CSV header wrong: %q", lines[0])
	}
	var txt bytes.Buffer
	if err := build().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "NO_REF->STABLE") {
		t.Fatalf("text render missing transition: %q", txt.String())
	}
}

// TestPrometheusExpositionGolden pins the exposition format byte-for-byte:
// family ordering, label quoting, histogram bucket/sum/count rendering.
// Regenerate with `go test ./internal/obs -run Golden -update`.
func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	sub := reg.Counter("demo_runs_submitted_total", "Runs submitted.")
	sub.Add(7)
	reg.LabeledCounter("demo_runs_finished_total", "Runs finished by state.", "state", "done").Add(5)
	reg.LabeledCounter("demo_runs_finished_total", "Runs finished by state.", "state", "failed").Inc()
	reg.CounterFunc("demo_events_total", "Events from a closure.", func() uint64 { return 42 })
	reg.GaugeFunc("demo_queue_depth", "Queued runs.", func() float64 { return 3 })
	h := reg.Histogram("demo_wall_seconds", "Run wall time.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	lh := reg.LabeledHistogram("demo_span_seconds", "Span timing.", "stage", "simulate", []float64{0.5})
	lh.Observe(0.25)
	lh.Observe(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := (&Registry{fams: map[string]*family{}}).Histogram("h", "h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 5 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("bucket counts %v", s.Counts)
	}
}

func TestSpan(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("span_seconds", "spans", []float64{10})
	sp := StartSpan(h)
	if sec := sp.End(); sec < 0 {
		t.Fatalf("negative span %v", sec)
	}
	if s := h.Snapshot(); s.Count != 1 {
		t.Fatalf("span not observed")
	}
	if StartSpan(nil).End() != 0 {
		t.Fatalf("nil span should be a no-op")
	}
}
