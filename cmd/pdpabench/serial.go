package main

import (
	"fmt"
	"runtime"
	"time"

	"pdpasim/internal/metrics"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// serialStats is what one serial pass measured.
type serialStats struct {
	gen, run []time.Duration // per workload.Generate / per System.Run
	events   uint64
	mallocs  uint64
	bytes    uint64
	total    time.Duration // generation plus simulation
}

// serialPass runs specs one after another on one reused system.System —
// the single-threaded baseline of the sweep engine — generating each
// distinct workload once, as Sweep's memo does. Allocation counts bracket
// the System.Run calls alone. check, when it returns an error for a result,
// fails the pass: the serial pass must reproduce what the window served.
// With a tracer the pass records its own spans, outside any op.
func serialPass(specs []runSpec, t *tracer, check func(i int, res *metrics.RunResult) error) (serialStats, error) {
	var st serialStats
	sys := system.NewSystem()
	memo := map[runSpec]*workload.Workload{}
	var before, after runtime.MemStats
	for i, spec := range specs {
		wkey := spec
		wkey.policy = ""
		w := memo[wkey]
		if w == nil {
			cfg, err := spec.genConfig()
			if err != nil {
				return st, err
			}
			start := time.Now()
			w, err = workload.Generate(cfg)
			d := time.Since(start)
			if err != nil {
				return st, fmt.Errorf("generating %s: %w", spec.mix, err)
			}
			t.interval("workload.generate", start, d)
			st.gen = append(st.gen, d)
			st.total += d
			memo[wkey] = w
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := sys.Run(spec.systemConfig(w))
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return st, fmt.Errorf("serial run %d: %w", i, err)
		}
		t.interval("system.run", start, d)
		st.run = append(st.run, d)
		st.total += d
		st.events += sys.EventsExecuted()
		st.mallocs += after.Mallocs - before.Mallocs
		st.bytes += after.TotalAlloc - before.TotalAlloc
		if err := check(i, res); err != nil {
			return st, fmt.Errorf("serial run %d (%s %s load %.1f seed %d): %w",
				i, spec.policy, spec.mix, spec.load, spec.seed, err)
		}
	}
	return st, nil
}

// report sets the system and workload metrics the pass measures.
func (st serialStats) report(m *metricSet) {
	runs := float64(len(st.run))
	var sim time.Duration
	for _, d := range st.run {
		sim += d
	}
	m.set("system.events_per_run", ratio(float64(st.events), runs))
	m.set("system.ns_per_event", ratio(float64(sim.Nanoseconds()), float64(st.events)))
	m.set("system.allocs_per_run", ratio(float64(st.mallocs), runs))
	m.set("system.kb_per_run", ratio(float64(st.bytes)/1024, runs))
	m.set("workload.calls", float64(len(st.gen)))
	m.set("workload.generate_ms_p50", pctMS(st.gen, 50))
}
