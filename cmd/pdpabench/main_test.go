package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/internal/leakcheck"
)

// TestWorkloadsSmoke runs every workload traced, in process, at a tiny op
// count and one set-up round, and requires every check to pass, every
// end-to-end metric to be positive, and both metric sets to be complete.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			before := leakcheck.Snapshot()
			o := options{workload: w.name, seed: 3, seconds: 10, trace: true, traceDir: t.TempDir(), scratch: t.TempDir()}
			e := newEnv(o, w)
			// A quarter second's ops, under the full window cap, so a slow
			// machine cannot make the cap fail them.
			e.n, e.rounds = opCount(w.rate, 0.25), 1
			if err := w.run(context.Background(), e); err != nil {
				t.Fatal(err)
			}
			e.publish()
			if e.rep.Failed != 0 || e.rep.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", e.rep.Attempted, e.rep.Failed, e.rep.Checks)
			}
			if err := before.Wait(leakcheck.Grace); err != nil {
				t.Error(err)
			}
			e2e := e.e2e.complete()
			for _, d := range endToEnd {
				// peak_rss_mb is the parent's measurement of the child.
				if m := e2e[d.name]; m.Unit != d.unit || (m.Value <= 0 && d.name != "peak_rss_mb") {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
			layers := e.layers.complete()
			if len(layers) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(layers), len(perLayer))
			}
			for _, d := range perLayer {
				if layers[d.name].Unit != d.unit {
					t.Errorf("per-layer %s unit %q, want %q", d.name, layers[d.name].Unit, d.unit)
				}
			}
			if _, err := os.Stat(filepath.Join(o.traceDir, w.name+".spans.jsonl")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOracleRejectsCorruptResult feeds the oracles a result with one byte
// changed.
func TestOracleRejectsCorruptResult(t *testing.T) {
	ctx := context.Background()
	spec := freshSpec(1, 5)
	ws, opts := spec.facade()
	out, err := pdpasim.RunContext(ctx, ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := out.WriteJSON(&good); err != nil {
		t.Fatal(err)
	}
	if err := oracleServed(ctx, spec, good.Bytes()); err != nil {
		t.Fatalf("oracle rejects the true result: %v", err)
	}
	bad := bytes.Replace(good.Bytes(), []byte(`"makespan_s": `), []byte(`"makespan_s": 1`), 1)
	if bytes.Equal(bad, good.Bytes()) {
		t.Fatal("corruption did not apply")
	}
	if err := oracleServed(ctx, spec, bad); err == nil {
		t.Error("oracle accepted a corrupted served result")
	}

	cell := sweepSpec(7, 11)
	res, err := pdpasim.Sweep(ctx, sweepGrid(11))
	if err != nil {
		t.Fatal(err)
	}
	r := pdpasim.NewRunner()
	run := res.Runs[7]
	if err := oracleSweepRun(r, cell, run); err != nil {
		t.Fatalf("oracle rejects the true sweep run: %v", err)
	}
	run.Migrations++
	if err := oracleSweepRun(r, cell, run); err == nil {
		t.Error("oracle accepted a corrupted sweep run")
	}
}

// benchFile is BENCHMARK.json, decoded strictly.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// formatMaxBound is the largest bound the BENCHMARK.json format accepts.
// Each metric's own bound is chosen from its measured spread (README.md).
const formatMaxBound = 0.25

// TestBenchmarkJSONSchema keeps BENCHMARK.json and the code's workload and
// metric declarations in step, within the format's limits.
func TestBenchmarkJSONSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(raw) > 64<<10 || b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Command) == 0 || len(b.Paths) != 1 || b.Paths[0] != "cmd/pdpabench" {
		t.Errorf("size %d, run_seconds %d, command %v, paths %v", len(raw), b.RunSeconds, b.Command, b.Paths)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code (2–8 allowed)", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (%q) vs code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code (1–16 allowed)", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > formatMaxBound {
			t.Errorf("end-to-end %d: %+v vs code %+v", i, m, d)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code (1–128 allowed)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: %+v vs code %+v", i, m, d)
		}
	}
}

// TestFlags rejects what the command cannot run.
func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-workload", "nope"},
		{"stray"},
		{"-child", "-workload", "serve-fresh"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != exitStart {
			t.Errorf("%v: exit %d, want %d", args, code, exitStart)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q", args, out.String())
		}
	}
}

// TestWindowCapFailsUnrunOps: a window that reaches its cap does not shrink
// the workload; the ops it kept from running count as failed.
func TestWindowCapFailsUnrunOps(t *testing.T) {
	w, _ := workloadByName("serve-fresh")
	e := newEnv(options{seed: 1, seconds: 1}, w)
	win := closedLoop(context.Background(), 2, 5, 0, func(context.Context, int) (time.Duration, error) {
		return time.Millisecond, nil
	})
	e.account(win, 1, []time.Duration{time.Millisecond})
	if e.rep.Attempted != 5 || e.rep.Failed != 5 {
		t.Errorf("attempted %d, failed %d; want 5 and 5", e.rep.Attempted, e.rep.Failed)
	}
}

// TestMixedPlan pins serve-mixed's traffic to pdpaload's defaults: about a
// quarter of the ops repeat the spec of an op that submitted a new one,
// always a spec one of the last mixedRecent ops used (so it is still
// cached), and about a quarter of the ops follow over SSE.
func TestMixedPlan(t *testing.T) {
	const n = 4000
	origins := make([]int, n)
	repeats, sse := 0, 0
	for i := 0; i < n; i++ {
		o, s := mixedOp(7, i)
		origins[i] = o
		if s {
			sse++
		}
		if o == i {
			continue
		}
		repeats++
		if o > i || origins[o] != o {
			t.Fatalf("op %d repeats op %d, which is not an earlier new spec", i, o)
		}
		recent := false
		for j := max(0, i-mixedRecent); j < i; j++ {
			recent = recent || origins[j] == o
		}
		if !recent {
			t.Fatalf("op %d repeats op %d's spec, unused in the last %d ops", i, o, mixedRecent)
		}
	}
	for name, got := range map[string]int{"repeats": repeats, "sse": sse} {
		if share := float64(got) / n; share < 0.22 || share > 0.28 {
			t.Errorf("%s share %.3f, want about 0.25", name, share)
		}
	}
}

// closeCounter is a RoundTripper that counts CloseIdleConnections calls.
type closeCounter struct {
	http.RoundTripper
	closes int
}

func (c *closeCounter) CloseIdleConnections() { c.closes++ }

// TestSpanTransportClosesIdle: closing a traced client's idle connections
// reaches the transport underneath, as the coordinator's Close expects.
func TestSpanTransportClosesIdle(t *testing.T) {
	base := &closeCounter{}
	hc := &http.Client{Transport: &spanTransport{t: newTracer(), base: base, node: true}}
	hc.CloseIdleConnections()
	if base.closes != 1 {
		t.Errorf("base transport closed idle connections %d times, want 1", base.closes)
	}
}

// TestSelfTimes pins the attribution rule: nested children subtract from
// their parent, and an overlap between non-nested spans goes to the
// deeper one, so an op's self times sum to its duration.
func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{Name: "op", Trace: 0, ID: 1, Start: 0, End: ms(10)},
		{Name: "client.submit", Trace: 0, ID: 2, Parent: 1, Start: 0, End: ms(4)},
		{Name: "server.submit", Trace: 0, ID: 3, Parent: 2, Start: ms(1), End: ms(3)},
		// Starts inside the submit and outlives it.
		{Name: "runqueue.attempt", Trace: 0, ID: 4, Parent: 3, Start: ms(2), End: ms(8)},
	}
	got := selfTimes(spans)
	want := []int64{ms(2), ms(1), ms(1), ms(6)}
	var sum time.Duration
	for i := range got {
		sum += got[i]
		if int64(got[i]) != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, got[i], time.Duration(want[i]))
		}
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %v, want the op's %v", sum, spans[0].dur())
	}
}
