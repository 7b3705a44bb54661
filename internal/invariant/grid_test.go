package invariant

import (
	"fmt"
	"sort"
	"testing"

	"pdpasim/internal/metrics"
	"pdpasim/internal/obs"
	"pdpasim/internal/sim"
	"pdpasim/internal/system"
	"pdpasim/internal/trace"
	"pdpasim/internal/workload"
)

// TestFaultFreeGrid runs every policy against every workload mix and demands
// zero violations from both checker levels — the baseline the chaos suite's
// under-injection runs are compared against.
func TestFaultFreeGrid(t *testing.T) {
	policies := append(system.ExtendedPolicyKinds(), system.AdaptivePDPA)
	mixes := []string{"w1", "w2", "w3", "w4"}
	for _, pol := range policies {
		for _, mixName := range mixes {
			t.Run(fmt.Sprintf("%s/%s", pol, mixName), func(t *testing.T) {
				mix, err := workload.MixByName(mixName)
				if err != nil {
					t.Fatal(err)
				}
				w, err := workload.Generate(workload.GenConfig{
					Mix: mix, Load: 0.8, NCPU: 32, Window: 60 * sim.Second, Seed: 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				chk := New()
				tr := obs.NewTrace(-1) // stream-only: the checker is the consumer
				tr.SetSink(func(seq int, e obs.Event) { chk.Observe(obs.Export(seq, e)) })
				res, err := system.Run(system.Config{
					Workload:   w,
					Policy:     pol,
					Seed:       7,
					KeepBursts: true,
					Trace:      tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := chk.Err(); err != nil {
					t.Errorf("stream invariants: %v", err)
				}
				if v := checkResult(res); len(v) != 0 {
					t.Errorf("recorded-history invariants: %v", v)
				}
			})
		}
	}
}

// checkResult verifies machine-level invariants over a completed run's
// recorded execution history (the run must have kept bursts): per-CPU bursts
// never overlap (no CPU has two owners), no burst outlives its job or
// predates its start, the instantaneous total allocation never exceeds the
// machine, every job ends holding zero processors, and the MPL timeline is
// ordered and non-negative. It returns the violations found, nil when clean.
func checkResult(res *metrics.RunResult) []string {
	var v []string
	rec := res.Recorder
	if rec == nil {
		return []string{"run kept no recorder (Config.KeepBursts unset); burst invariants unverifiable"}
	}
	start := make(map[int]sim.Time, len(res.Jobs))
	end := make(map[int]sim.Time, len(res.Jobs))
	for _, j := range res.Jobs {
		start[j.ID] = j.Start
		end[j.ID] = j.End
	}

	byCPU := make(map[int][]trace.Burst)
	for _, b := range rec.Bursts() {
		if b.End < b.Start {
			v = append(v, fmt.Sprintf("CPU %d: burst for job %d runs backwards (%v > %v)", b.CPU, b.Job, b.Start, b.End))
		}
		e, known := end[b.Job]
		if !known {
			v = append(v, fmt.Sprintf("CPU %d: burst for unknown job %d", b.CPU, b.Job))
		} else {
			if b.End > e {
				v = append(v, fmt.Sprintf("CPU %d held by job %d until %v, after its completion at %v", b.CPU, b.Job, b.End, e))
			}
			if b.Start < start[b.Job] {
				v = append(v, fmt.Sprintf("CPU %d ran job %d from %v, before its start at %v", b.CPU, b.Job, b.Start, start[b.Job]))
			}
		}
		byCPU[b.CPU] = append(byCPU[b.CPU], b)
	}
	for cpu, bs := range byCPU {
		sort.Slice(bs, func(i, j int) bool { return bs[i].Start < bs[j].Start })
		for i := 1; i < len(bs); i++ {
			if bs[i].Start < bs[i-1].End {
				v = append(v, fmt.Sprintf("CPU %d double-owned: job %d until %v overlaps job %d from %v",
					cpu, bs[i-1].Job, bs[i-1].End, bs[i].Job, bs[i].Start))
			}
		}
	}

	// CPU conservation from the per-job allocation series: at every instant
	// the summed allocation must fit the machine, and every job's series
	// must return to zero.
	type step struct {
		at    sim.Time
		delta int
	}
	var steps []step
	for _, j := range res.Jobs {
		prev := 0
		for _, p := range rec.AllocationHistory(j.ID) {
			if p.At > j.End && p.Value > 0 {
				v = append(v, fmt.Sprintf("job %d allocated %d processors at %v, after its completion at %v", j.ID, p.Value, p.At, j.End))
			}
			steps = append(steps, step{p.At, p.Value - prev})
			prev = p.Value
		}
		// The manager releases the partition at completion without recording
		// a zero sample; close the series at the job's end time.
		if prev != 0 {
			steps = append(steps, step{j.End, -prev})
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	total := 0
	for i := 0; i < len(steps); {
		at := steps[i].at
		// Apply every step of the instant before judging it, so a release
		// and a grant at the same timestamp never look like a transient
		// over-allocation.
		for i < len(steps) && steps[i].at == at {
			total += steps[i].delta
			i++
		}
		if total > rec.NCPU() {
			v = append(v, fmt.Sprintf("allocated %d CPUs at %v exceeds machine size %d", total, at, rec.NCPU()))
		}
		if total < 0 {
			v = append(v, fmt.Sprintf("allocation accounting negative (%d) at %v", total, at))
		}
	}

	prevAt := sim.Time(-1)
	for _, p := range res.MPLTimeline {
		if p.Value < 0 {
			v = append(v, fmt.Sprintf("MPL negative (%d) at %v", p.Value, p.At))
		}
		if p.At < prevAt {
			v = append(v, fmt.Sprintf("MPL timeline out of order at %v", p.At))
		}
		prevAt = p.At
	}

	if len(v) > maxViolations {
		v = append(v[:maxViolations], fmt.Sprintf("... and %d more suppressed", len(v)-maxViolations))
	}
	return v
}
