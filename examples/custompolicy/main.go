// Custom policy: the scheduling framework is extensible — any type
// implementing sched.Policy can drive the resource manager. This example
// implements "FCFS-greedy", a policy that grants every application its full
// request in arrival order (what naive users expect a batch system to do),
// and races it against PDPA on workload 3 to show why performance-driven
// allocation matters.
//
// It uses the internal packages directly (examples live inside the module),
// wiring the same machinery the built-in policies use.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"

	"pdpasim/internal/app"
	"pdpasim/internal/core"
	"pdpasim/internal/machine"
	"pdpasim/internal/nthlib"
	"pdpasim/internal/qs"
	"pdpasim/internal/rm"
	"pdpasim/internal/sched"
	"pdpasim/internal/selfanalyzer"
	"pdpasim/internal/sim"
	"pdpasim/internal/stats"
	"pdpasim/internal/trace"
	"pdpasim/internal/workload"
)

// fcfsGreedy implements sched.Policy: each job gets its full request, first
// come first served; leftovers go unused. It ignores performance entirely.
type fcfsGreedy struct{}

func (fcfsGreedy) Name() string                                                     { return "FCFS-greedy" }
func (fcfsGreedy) JobStarted(now sim.Time, job *sched.JobView)                      {}
func (fcfsGreedy) JobFinished(now sim.Time, id sched.JobID)                         {}
func (fcfsGreedy) ReportPerformance(now sim.Time, j *sched.JobView, r sched.Report) {}

// Plan returns one entry per job, aligned with v.Jobs.
func (fcfsGreedy) Plan(v sched.View) []int {
	plan := make([]int, len(v.Jobs))
	remaining := v.NCPU
	for i, j := range v.Jobs { // sorted by arrival (ID)
		grant := j.Request
		if grant > remaining {
			grant = remaining
		}
		if grant < 1 && remaining > 0 {
			grant = 1
		}
		plan[i] = grant
		remaining -= grant
		if remaining < 0 {
			remaining = 0
		}
	}
	return plan
}

func (fcfsGreedy) WantsNewJob(v sched.View) bool { return true }

// runWith executes a workload under any sched.Policy and returns average
// response time per class — the same wiring internal/system uses. fixedMPL
// is the queuing system's level (0 = policy-driven admission).
func runWith(w *workload.Workload, pol sched.Policy, fixedMPL int) map[app.Class]float64 {
	eng := sim.NewEngine()
	rec := trace.NewRecorder(w.NCPU)
	rec.KeepBursts = false
	mach := machine.New(w.NCPU, rec)
	mgr := rm.NewSpaceManager(eng, mach, pol, rec)
	noise := stats.NewRNG(1)

	type done struct{ submit, end sim.Time }
	finished := map[int]*done{}
	var queue *qs.QueuingSystem
	start := func(job workload.Job) {
		id := sched.JobID(job.ID)
		prof := app.ProfileFor(job.Class)
		an := selfanalyzer.MustNew(selfanalyzer.ConfigFor(prof, 0.01),
			noise.Stream(fmt.Sprint(job.ID)))
		d := &done{submit: job.Submit}
		finished[job.ID] = d
		rt := nthlib.New(eng, prof, job.Request, an, nthlib.Hooks{
			OnPerformance: func(m selfanalyzer.Measurement) { mgr.ReportPerformance(id, m) },
			OnDone: func() {
				d.end = eng.Now()
				mgr.JobFinished(id)
				queue.JobCompleted()
			},
		})
		mgr.StartJob(id, rt)
	}
	queue = qs.New(eng, fixedMPL, mgr.CanAdmit, start, rec)
	mgr.SetAdmissionChanged(queue.TryStart)
	queue.SubmitAll(w)
	eng.Run(50000 * sim.Second)

	sums := map[app.Class]*stats.Summary{}
	for _, job := range w.Jobs {
		d := finished[job.ID]
		if sums[job.Class] == nil {
			sums[job.Class] = &stats.Summary{}
		}
		sums[job.Class].Add((d.end - d.submit).Seconds())
	}
	out := map[app.Class]float64{}
	for c, s := range sums {
		out[c] = s.Mean()
	}
	return out
}

func main() {
	tuned, err := workload.Generate(workload.GenConfig{
		Mix: workload.W3(), Load: 0.6, NCPU: 60, Window: 300 * sim.Second, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Submit without tuning: every job asks for 30 processors (the Table 3
	// scenario) — this is where ignoring measured performance hurts most.
	w := tuned.WithUniformRequest(30)
	fmt.Printf("workload 3 at 60%% demand, every job requesting 30 CPUs: %d jobs %v\n\n",
		len(w.Jobs), w.CountByClass())

	type entry struct {
		pol sched.Policy
		ml  int
	}
	for _, e := range []entry{
		{fcfsGreedy{}, 4},                       // fixed level, like the paper's baselines
		{core.MustNew(core.DefaultParams()), 0}, // PDPA decides the level itself
	} {
		resp := runWith(w, e.pol, e.ml)
		fmt.Printf("%-12s", e.pol.Name())
		for _, c := range app.AllClasses() {
			if v, ok := resp[c]; ok {
				fmt.Printf("  %s resp %6.0fs", c, v)
			}
		}
		fmt.Println()
	}
	fmt.Println("\nFCFS-greedy parks 30 processors on every apsi (which can use ~2 of them);")
	fmt.Println("PDPA measures that and reclaims the waste for the queue.")
}
