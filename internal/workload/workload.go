// Package workload builds and serializes the job streams the evaluation
// runs: combinations of the four applications submitted with Poisson
// interarrivals over a 300-second window, calibrated to an estimated
// processor demand of 60, 80, or 100 percent of the machine (Section 5).
//
// Workloads are written to and read from Feitelson's Standard Workload
// Format (SWF), the format the paper's trace files use, so the identical
// arrival sequence can be replayed under every scheduling policy.
package workload

import (
	"fmt"
	"sort"

	"pdpasim/internal/app"
	"pdpasim/internal/sim"
	"pdpasim/internal/stats"
)

// The evaluation's run defaults (Section 5): 60 processors of the Origin
// 2000, a 300 s submission window, and a demand of 100% of the machine.
// Every entry point that generates a workload fills an unset field with
// these.
const (
	DefaultNCPU   = 60
	DefaultWindow = 300 * sim.Second
	DefaultLoad   = 1.0
)

// Job is one submission: an application instance arriving at Submit and
// requesting Request processors.
type Job struct {
	ID      int
	Class   app.Class
	Submit  sim.Time
	Request int
	// Gran is the job's allocation granularity: 0 or 1 means fully
	// malleable (the paper's OpenMP applications); Request means rigid (an
	// MPI application that runs with exactly its request or not at all);
	// an intermediate value g models the paper's future-work MPI+OpenMP
	// hybrid — g processes whose OpenMP thread counts the scheduler
	// controls, so allocations are multiples of g.
	Gran int
}

// Granularity returns the effective allocation granularity (>= 1).
func (j Job) Granularity() int {
	if j.Gran < 1 {
		return 1
	}
	if j.Gran > j.Request {
		return j.Request
	}
	return j.Gran
}

// Workload is an ordered job stream plus the machine context it was
// calibrated for.
type Workload struct {
	Name string
	// NCPU is the machine size the load was calibrated against.
	NCPU int
	// TargetLoad is the calibrated demand fraction (0.6, 0.8, 1.0).
	TargetLoad float64
	Jobs       []Job
}

// Mix describes a workload composition: the fraction of the total load
// contributed by each application class (Table 1).
type Mix struct {
	Name   string
	Shares map[app.Class]float64
}

// The four workload mixes of Table 1.
func W1() Mix {
	return Mix{Name: "w1", Shares: map[app.Class]float64{app.Swim: 0.5, app.BT: 0.5}}
}
func W2() Mix {
	return Mix{Name: "w2", Shares: map[app.Class]float64{app.BT: 0.5, app.Hydro2D: 0.5}}
}
func W3() Mix {
	return Mix{Name: "w3", Shares: map[app.Class]float64{app.BT: 0.5, app.Apsi: 0.5}}
}
func W4() Mix {
	return Mix{Name: "w4", Shares: map[app.Class]float64{
		app.Swim: 0.25, app.BT: 0.25, app.Hydro2D: 0.25, app.Apsi: 0.25}}
}

// MixByName returns the named standard mix.
func MixByName(name string) (Mix, error) {
	switch name {
	case "w1":
		return W1(), nil
	case "w2":
		return W2(), nil
	case "w3":
		return W3(), nil
	case "w4":
		return W4(), nil
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q (want w1..w4)", name)
}

// Validate checks that the shares are non-negative and sum to ~1.
func (m Mix) Validate() error {
	sum := 0.0
	for c, s := range m.Shares {
		if s < 0 {
			return fmt.Errorf("workload %s: negative share for %v", m.Name, c)
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %s: shares sum to %v, want 1", m.Name, sum)
	}
	return nil
}

// GenConfig parameterizes workload generation.
type GenConfig struct {
	Mix Mix
	// Load is the estimated processor demand as a fraction of capacity.
	Load float64
	// NCPU is the machine size (the paper uses 60 of the Origin's 64).
	NCPU int
	// Window is the submission window (the paper uses 300 s).
	Window sim.Time
	// Seed drives the arrival process.
	Seed int64
	// Burstiness makes arrivals bursty: during burst periods the arrival
	// intensity is Burstiness times the calm intensity, with the overall
	// expected demand unchanged. 0 or 1 keeps the paper's homogeneous
	// Poisson arrivals. (Modeled as a two-state modulated process: calm
	// and burst periods alternate, exponentially distributed, burstFraction
	// of the window in bursts of mean length meanBurst.)
	Burstiness float64
}

// The two-state arrival process's shape when GenConfig.Burstiness > 1.
const (
	// burstFraction is the fraction of the window spent in the burst state.
	burstFraction = 0.2
	// meanBurst is the mean burst-period length, in seconds.
	meanBurst = 20.0
)

// Generate builds a workload: for each class with a positive share, arrivals
// form a Poisson process over the window whose rate makes the class's
// expected CPU demand equal share × load × NCPU × window. Every
// positive-share class contributes at least one job so per-class metrics are
// always defined. Jobs are sorted by submission time and numbered from 0.
func Generate(cfg GenConfig) (*Workload, error) {
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	if cfg.Load <= 0 {
		return nil, fmt.Errorf("workload: load %v must be positive", cfg.Load)
	}
	if cfg.NCPU <= 0 || cfg.Window <= 0 {
		return nil, fmt.Errorf("workload: NCPU and Window must be positive")
	}
	rng := stats.NewRNG(cfg.Seed).Stream("arrivals/" + cfg.Mix.Name)
	var jobs []Job

	classes := make([]app.Class, 0, len(cfg.Mix.Shares))
	for c := range cfg.Mix.Shares {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	for _, cl := range classes {
		share := cfg.Mix.Shares[cl]
		if share <= 0 {
			continue
		}
		prof := app.ProfileFor(cl)
		// The CPU-seconds of useful work one job carries (its serial work).
		// Estimating demand from work rather than from request × runtime
		// means a poorly-scaling application holding 30 processors
		// oversubscribes the machine — exactly the situation the paper's
		// 100%-load workloads create and PDPA exploits.
		perJob := prof.TotalSerialWork().Seconds()
		targetDemand := share * cfg.Load * float64(cfg.NCPU) * cfg.Window.Seconds()
		expectedJobs := targetDemand / perJob

		// Conditioned Poisson process: draw the job count by stratified
		// rounding of the expectation (so the realized demand stays close
		// to the calibration target even for classes with very heavy jobs),
		// then place the arrivals as uniform order statistics — which is
		// exactly the distribution of Poisson arrival times given their
		// count. Every positive-share class contributes at least one job.
		crng := rng.Stream(cl.String())
		n := int(expectedJobs)
		if crng.Float64() < expectedJobs-float64(n) {
			n++
		}
		if n < 1 {
			n = 1
		}
		times := make([]float64, n)
		for i := range times {
			times[i] = crng.Float64() * cfg.Window.Seconds()
		}
		if cfg.Burstiness > 1 {
			mapThroughIntensity(times, cfg, rng.Stream("bursts"))
		}
		sort.Float64s(times)
		for _, t := range times {
			jobs = append(jobs, Job{
				Class:   cl,
				Submit:  sim.FromSeconds(t),
				Request: prof.Request,
			})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Submit < jobs[j].Submit })
	for i := range jobs {
		jobs[i].ID = i
	}
	return &Workload{
		Name:       fmt.Sprintf("%s-load%.0f", cfg.Mix.Name, cfg.Load*100),
		NCPU:       cfg.NCPU,
		TargetLoad: cfg.Load,
		Jobs:       jobs,
	}, nil
}

// mapThroughIntensity warps uniform arrival positions through the inverse
// cumulative of a two-state (calm/burst) intensity profile, so the same job
// count clusters into bursts. The profile is shared across classes (one
// "bursts" stream per workload) so bursts are correlated, as real arrival
// surges are.
func mapThroughIntensity(times []float64, cfg GenConfig, rng *stats.RNG) {
	window := cfg.Window.Seconds()
	meanCalm := meanBurst * (1 - burstFraction) / burstFraction

	// Build alternating calm/burst segments covering the window.
	type segment struct{ start, length, intensity float64 }
	var segs []segment
	t := 0.0
	inBurst := rng.Float64() < burstFraction
	for t < window {
		mean := meanCalm
		intensity := 1.0
		if inBurst {
			mean = meanBurst
			intensity = cfg.Burstiness
		}
		length := rng.Exp(mean)
		if t+length > window {
			length = window - t
		}
		segs = append(segs, segment{start: t, length: length, intensity: intensity})
		t += length
		inBurst = !inBurst
	}
	// Cumulative intensity; map each uniform position u∈[0,window) through
	// the inverse: find where u×(total/window) of cumulative mass falls.
	total := 0.0
	for _, s := range segs {
		total += s.length * s.intensity
	}
	for i, u := range times {
		target := u / window * total
		acc := 0.0
		for _, s := range segs {
			mass := s.length * s.intensity
			if acc+mass >= target {
				times[i] = s.start + (target-acc)/s.intensity
				break
			}
			acc += mass
		}
		if times[i] >= window {
			times[i] = window - 1e-6
		}
	}
}

// WithGranularity returns a copy of w in which every job of class c has
// allocation granularity g (see Job.Gran). Other classes are untouched.
func (w *Workload) WithGranularity(c app.Class, g int) *Workload {
	out := &Workload{
		Name:       w.Name,
		NCPU:       w.NCPU,
		TargetLoad: w.TargetLoad,
		Jobs:       make([]Job, len(w.Jobs)),
	}
	copy(out.Jobs, w.Jobs)
	for i := range out.Jobs {
		if out.Jobs[i].Class == c {
			out.Jobs[i].Gran = g
		}
	}
	return out
}

// WithUniformRequest returns a copy of w in which every job requests n
// processors — the paper's "not tuned" experiments (Tables 3 and 4) replay
// the same submissions with the request forced to 30.
func (w *Workload) WithUniformRequest(n int) *Workload {
	out := &Workload{
		Name:       w.Name + "-untuned",
		NCPU:       w.NCPU,
		TargetLoad: w.TargetLoad,
		Jobs:       make([]Job, len(w.Jobs)),
	}
	copy(out.Jobs, w.Jobs)
	for i := range out.Jobs {
		out.Jobs[i].Request = n
	}
	return out
}

// Work returns the workload's total useful work in CPU-seconds (the sum of
// each job's serial work) — the quantity load calibration targets.
func (w *Workload) Work(profiles func(app.Class) *app.Profile) float64 {
	if profiles == nil {
		profiles = app.ProfileFor
	}
	total := 0.0
	for _, j := range w.Jobs {
		total += profiles(j.Class).TotalSerialWork().Seconds()
	}
	return total
}

// Demand returns the CPU-seconds the workload *holds* when every job runs at
// its requested size: request × dedicated runtime. For poorly scaling
// applications this far exceeds Work — the gap PDPA reclaims.
func (w *Workload) Demand(profiles func(app.Class) *app.Profile) float64 {
	if profiles == nil {
		profiles = app.ProfileFor
	}
	total := 0.0
	for _, j := range w.Jobs {
		prof := profiles(j.Class)
		total += float64(j.Request) * prof.DedicatedTime(j.Request).Seconds()
	}
	return total
}

// EstimatedLoad returns Work divided by machine capacity over the window.
func (w *Workload) EstimatedLoad(window sim.Time) float64 {
	return w.Work(nil) / (float64(w.NCPU) * window.Seconds())
}

// CountByClass returns how many jobs of each class the workload contains.
func (w *Workload) CountByClass() map[app.Class]int {
	out := map[app.Class]int{}
	for _, j := range w.Jobs {
		out[j.Class]++
	}
	return out
}
