package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdpasim"
	"pdpasim/internal/leakcheck"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/server"
)

// slowStubSim simulates ~25ms of work so a closed-loop soak with more
// workers than pool capacity reliably drives the shed path.
func slowStubSim(ctx context.Context, spec runqueue.Spec) (*pdpasim.Outcome, error) {
	select {
	case <-time.After(25 * time.Millisecond):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return pdpasim.RunContext(ctx, pdpasim.WorkloadSpec{
		Mix: "w1", Load: 0.3, NCPU: 8, Window: time.Second, Seed: spec.Workload.Seed,
	}, pdpasim.Options{Policy: pdpasim.Equipartition})
}

// TestRunLoadSoak drives the real load generator against an in-process
// pdpad surface sized to shed: completions, cache hits, SSE follows, and
// coherent 429 retry hints must all show up in the report, with zero
// contract violations.
func TestRunLoadSoak(t *testing.T) {
	defer leakcheck.Check(t)
	pool := runqueue.New(runqueue.Config{
		BaseWorkers: 1,
		MaxWorkers:  1,
		QueueLimit:  2,
		Warmup:      time.Millisecond,
		Simulate:    slowStubSim,
	})
	ts := httptest.NewServer(server.New(pool))
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.Drain(ctx)
	}()

	cfg := defaultConfig()
	cfg.Addr = ts.URL
	cfg.Duration = 2 * time.Second
	cfg.Workers = 8
	cfg.PollInterval = 5 * time.Millisecond
	cfg.RunTimeout = 10 * time.Second

	report, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(strings.TrimRight(report.Text(), "\n"))

	if report.Completed == 0 {
		t.Error("soak completed no runs")
	}
	if report.Submitted < report.Completed {
		t.Errorf("submitted %d < completed %d", report.Submitted, report.Completed)
	}
	if report.Shed == 0 {
		t.Error("8 workers against a 1-worker pool with a 2-run queue never shed")
	}
	if report.RetryHintsSeen != report.Shed {
		t.Errorf("%d sheds but only %d coherent retry hints", report.Shed, report.RetryHintsSeen)
	}
	if report.BadResponses != 0 {
		t.Errorf("%d contract violations, last: %s", report.BadResponses, report.LastBadResponse)
	}
	if report.P50 <= 0 || report.P99 < report.P50 || report.Max < report.P99 {
		t.Errorf("implausible percentiles: p50 %v p99 %v max %v", report.P50, report.P99, report.Max)
	}
	if report.DaemonMetrics["pdpad_sheds_total"] == 0 {
		t.Errorf("daemon metrics missing shed count: %v", report.DaemonMetrics)
	}
	if report.Text() == "" {
		t.Error("empty text report")
	}
}

// TestRunLoadUnreachable: a soak against nothing is a hard error (exit 2),
// not a report of zeroes.
func TestRunLoadUnreachable(t *testing.T) {
	cfg := defaultConfig()
	cfg.Addr = "http://127.0.0.1:1" // reserved port, nothing listens
	cfg.Duration = time.Second
	if _, err := runLoad(cfg); err == nil {
		t.Fatal("expected an error against an unreachable daemon")
	}
}

func TestRunLoadRejectsBadConfig(t *testing.T) {
	cfg := defaultConfig()
	cfg.Workers = 0
	if _, err := runLoad(cfg); err == nil {
		t.Fatal("expected an error for zero workers")
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile(sorted[:1], 0.99); got != time.Millisecond {
		t.Errorf("percentile of one sample = %v, want 1ms", got)
	}
}
