// Package selfanalyzer implements the NANOS SelfAnalyzer (Section 3.1): the
// runtime component that measures the speedup parallel applications actually
// achieve, exploiting their iterative structure.
//
// The analyzer controls the first few iterations of the outer loop on a
// small number of processors — the baseline measure. Once the time with
// baseline is known, subsequent iterations run on whatever the resource
// manager allocated, and the speedup with P processors is computed as the
// ratio between the baseline time and the time with P, normalized by an
// Amdahl Factor (the assumed speedup at the baseline processor count, since
// the baseline itself usually runs on more than one processor).
//
// Iterations whose timing spans a reallocation or penalty are dirty and are
// discarded; measurement noise is modeled as multiplicative log-normal
// jitter on iteration wall times.
package selfanalyzer

import (
	"fmt"

	"pdpasim/internal/app"
	"pdpasim/internal/sim"
	"pdpasim/internal/stats"
)

// Config parameterizes an Analyzer.
type Config struct {
	// BaselineProcs is the maximum processor count used during the baseline
	// iterations.
	BaselineProcs int
	// BaselineIterations is how many clean iterations form the baseline.
	BaselineIterations int
	// NoiseSigma is the standard deviation of the log of the multiplicative
	// measurement noise (0 disables noise).
	NoiseSigma float64
	// AF is the Amdahl Factor model: the speedup the analyzer assumes the
	// application achieved at the baseline processor count, used to
	// normalize baseline-relative speedups to one-processor speedups. When
	// calls are inserted by the compiler the hint is accurate; the
	// binary-only path uses a generic Amdahl estimate.
	AF app.SpeedupModel
}

func (c Config) validate() error {
	switch {
	case c.BaselineProcs < 1:
		return fmt.Errorf("selfanalyzer: baseline procs %d < 1", c.BaselineProcs)
	case c.BaselineIterations < 1:
		return fmt.Errorf("selfanalyzer: baseline iterations %d < 1", c.BaselineIterations)
	case c.NoiseSigma < 0:
		return fmt.Errorf("selfanalyzer: negative noise sigma")
	case c.AF == nil:
		return fmt.Errorf("selfanalyzer: nil Amdahl Factor model")
	}
	return nil
}

// ConfigFor builds the standard configuration for an application profile:
// the profile's baseline parameters and its true curve as the (accurate,
// compiler-inserted) Amdahl Factor hint.
func ConfigFor(prof *app.Profile, noiseSigma float64) Config {
	return Config{
		BaselineProcs:      prof.BaselineProcs,
		BaselineIterations: prof.BaselineIterations,
		NoiseSigma:         noiseSigma,
		AF:                 prof.Speedup,
	}
}

// Measurement is one performance observation delivered to the scheduler.
type Measurement struct {
	// Procs is the allocation the measurement was taken at.
	Procs int
	// Speedup is the measured speedup versus one processor.
	Speedup float64
	// Efficiency is Speedup/Procs.
	Efficiency float64
	// IterTime is the (noisy) measured iteration wall time.
	IterTime sim.Time
	// Iteration is the index of the iteration that produced the sample.
	Iteration int
}

// Analyzer accumulates iteration timings for one application instance.
type Analyzer struct {
	cfg Config
	rng *stats.RNG

	baselineProcs int // procs of the accumulating baseline samples
	baselineSum   sim.Time
	baselineN     int
	baselineTime  sim.Time // mean clean-iteration time at baselineProcs
	haveBaseline  bool
}

// New returns an analyzer. rng supplies measurement noise and may be nil
// only when cfg.NoiseSigma is 0.
func New(cfg Config, rng *stats.RNG) (*Analyzer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.NoiseSigma > 0 && rng == nil {
		return nil, fmt.Errorf("selfanalyzer: noise requested but no RNG")
	}
	return &Analyzer{cfg: cfg, rng: rng}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, rng *stats.RNG) *Analyzer {
	a, err := New(cfg, rng)
	if err != nil {
		panic(err)
	}
	return a
}

// Init reinitializes a to a freshly constructed state in place, recycling the
// struct across application instances. Validation matches New.
func Init(a *Analyzer, cfg Config, rng *stats.RNG) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.NoiseSigma > 0 && rng == nil {
		return fmt.Errorf("selfanalyzer: noise requested but no RNG")
	}
	*a = Analyzer{cfg: cfg, rng: rng}
	return nil
}

// InBaseline reports whether the analyzer is still collecting the baseline
// measure. While true, the runtime caps the application's effective
// parallelism at BaselineCap.
func (a *Analyzer) InBaseline() bool { return !a.haveBaseline }

// BaselineCap returns the processor cap the runtime applies during the
// baseline phase.
func (a *Analyzer) BaselineCap() int { return a.cfg.BaselineProcs }

func (a *Analyzer) noisy(t sim.Time) sim.Time {
	if a.cfg.NoiseSigma <= 0 {
		return t
	}
	return sim.Time(float64(t) * a.rng.LogNormalFactor(a.cfg.NoiseSigma))
}

// RecordIteration feeds the timing of one completed iteration, taken while
// the application effectively ran on procs processors. It returns a
// Measurement (and true) when the sample yields a valid performance
// observation: after the baseline completes, every clean iteration yields a
// measurement at its allocation. Baseline iterations and dirty samples
// (spanning reallocations or penalties) yield nothing — in particular the
// scheduler never sees a report taken at the artificially small baseline
// allocation, which would mislead its search.
func (a *Analyzer) RecordIteration(s app.IterationSample, procs int) (Measurement, bool) {
	if procs < 1 || !s.Clean {
		return Measurement{}, false
	}
	wall := a.noisy(s.WallTime)
	if wall <= 0 {
		return Measurement{}, false
	}
	if !a.haveBaseline {
		if procs != a.baselineProcs {
			// Allocation moved during the baseline phase (the RM granted a
			// different count): restart accumulation at the new count.
			a.baselineProcs = procs
			a.baselineSum = 0
			a.baselineN = 0
		}
		a.baselineSum += wall
		a.baselineN++
		if a.baselineN < a.cfg.BaselineIterations {
			return Measurement{}, false
		}
		a.baselineTime = a.baselineSum / sim.Time(a.baselineN)
		a.haveBaseline = true
		return Measurement{}, false
	}
	sp := a.cfg.AF.Speedup(a.baselineProcs) * float64(a.baselineTime) / float64(wall)
	return Measurement{
		Procs:      procs,
		Speedup:    sp,
		Efficiency: sp / float64(procs),
		IterTime:   wall,
		Iteration:  s.Index,
	}, true
}
