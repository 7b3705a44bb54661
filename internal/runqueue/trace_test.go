package runqueue

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/client"
)

// recordedTrace is the decision trace a run of spec records when it is
// simulated with tracing on: the bytes a served trace must equal.
func recordedTrace(t *testing.T, spec Spec) []byte {
	t.Helper()
	ws, opts := spec.Facade()
	opts.DecisionTrace = 2000
	out, err := pdpasim.RunContext(context.Background(), ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.DecisionTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func pdpaSpec(seed int64) Spec {
	spec := tinySpec(seed)
	spec.Options.Policy = "pdpa"
	return spec
}

// TestRunTraceStored: a done run serves its decision trace (PDPA policy
// decisions with reasons); a run not yet done, or a pool with TraceLimit
// < 0, serves none.
func TestRunTraceStored(t *testing.T) {
	ctx := context.Background()
	p := New(Config{})
	r, err := p.Submit(pdpaSpec(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, r.ID, Done)
	trace, err := p.Trace(ctx, r.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "policy_state"`, `"kind": "admit"`, `"reason"`} {
		if !strings.Contains(string(trace), want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
	if _, err := p.Trace(ctx, "run-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown run: err %v, want ErrNotFound", err)
	}

	release := make(chan struct{})
	defer close(release)
	held := New(Config{Simulate: blockingSim(t, new(atomic.Int64), release)})
	r1, err := held.Submit(pdpaSpec(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := held.Trace(ctx, r1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("run not done: err %v, want ErrNotFound", err)
	}

	off := New(Config{TraceLimit: -1})
	r2, err := off.Submit(pdpaSpec(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, off, r2.ID, Done)
	if _, err := off.Trace(ctx, r2.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tracing disabled: err %v, want ErrNotFound", err)
	}
}

// TestServedTraceEqualsRecorded: the trace a pool derives for a done run is
// byte for byte the one the run records when simulated traced, for every
// policy, including a pool whose Simulate is not the default.
func TestServedTraceEqualsRecorded(t *testing.T) {
	custom := func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) { return stubOutcome() }
	for _, p := range []*Pool{New(Config{}), New(Config{Simulate: custom})} {
		for i, policy := range []string{"irix", "equip", "equal_eff", "pdpa"} {
			spec := tinySpec(int64(20 + i))
			spec.Options.Policy = policy
			r, err := p.Submit(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, p, r.ID, Done)
			got, err := p.Trace(context.Background(), r.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, recordedTrace(t, spec)) {
				t.Errorf("%s: served trace differs from the recorded one", policy)
			}
		}
	}
}

// TestTraceWaitHonorsContext: with every trace slot taken, a trace read
// waits, and gives up when its context ends; a freed slot serves it.
func TestTraceWaitHonorsContext(t *testing.T) {
	p := New(Config{BaseWorkers: 1})
	r, err := p.Submit(pdpaSpec(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, r.ID, Done)
	p.traceSlots <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Trace(ctx, r.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("trace read with every slot taken: err %v, want context.Canceled", err)
	}
	<-p.traceSlots
	if _, err := p.Trace(context.Background(), r.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryHeapPerHeldRun: a run the history holds costs its result, not
// its decision trace. A PDPA run here records a trace of about 130 KB
// beside a 2 KB result; the heap retained per held run stays under 32 KB.
func TestHistoryHeapPerHeldRun(t *testing.T) {
	const n = 300
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	p := New(Config{QueueLimit: n})
	ids := make([]string, n)
	for i := range ids {
		r, err := p.Submit(pdpaSpec(int64(1000+i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = r.ID
	}
	for _, id := range ids {
		waitState(t, p, id, Done)
	}
	after := heap()
	if held := p.runs.Len(); held != n {
		t.Fatalf("history holds %d runs, want %d", held, n)
	}
	per := (int64(after) - int64(before)) / n
	t.Logf("retained heap per held run: %d bytes", per)
	if per >= 32<<10 {
		t.Fatalf("retained heap per held run %.1f KB, want under 32 KB", float64(per)/1024)
	}
	runtime.KeepAlive(p)
}

// TestTraceBoundedByRunTimeout: deriving a trace is bounded by RunTimeout
// like a simulation attempt, and a derivation cut by it reports
// ErrRunTimeout. The run itself finishes at once through a stub Simulate.
func TestTraceBoundedByRunTimeout(t *testing.T) {
	instant := func(ctx context.Context, spec Spec) (*pdpasim.Outcome, error) { return stubOutcome() }
	p := New(Config{RunTimeout: time.Millisecond, Simulate: instant})
	spec := Spec{
		Workload: WorkloadSpec{Mix: "w2", Load: 1, WindowS: 14400, Seed: 5},
		Options:  RunOptions{Policy: "pdpa", Seed: 5},
	}
	r, err := p.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, r.ID, Done)
	if _, err := p.Trace(context.Background(), r.ID); !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("trace of a 4 h window under a 1 ms run timeout: err %v, want ErrRunTimeout", err)
	}
}

// BenchmarkPoolTrace measures one GET /v1/runs/{id}/trace read of a done
// PDPA run at the default TraceLimit, which re-simulates the run's spec
// traced: "w3-300s" is a run at the default 300 s window, "w2-4h" a
// long-window run of 14400 s. bytes/trace is the served trace's size.
func BenchmarkPoolTrace(b *testing.B) {
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"w3-300s", Spec{Workload: WorkloadSpec{Mix: "w3", Load: 1, WindowS: 300, Seed: 7}, Options: RunOptions{Policy: "pdpa", Seed: 7}}},
		{"w2-4h", Spec{Workload: WorkloadSpec{Mix: "w2", Load: 1, WindowS: 14400, Seed: 7}, Options: RunOptions{Policy: "pdpa", Seed: 7}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := New(Config{})
			defer p.Drain(context.Background())
			r, err := p.Submit(c.spec, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.FollowRun(context.Background(), r.ID, func(client.Event) {}); err != nil {
				b.Fatal(err)
			}
			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trace, err := p.Trace(context.Background(), r.ID)
				if err != nil {
					b.Fatal(err)
				}
				size = len(trace)
			}
			b.ReportMetric(float64(size), "bytes/trace")
		})
	}
}
