package pdpasim

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pdpasim/internal/app"
	"pdpasim/internal/experiments"
	"pdpasim/internal/report"
)

// Experiment identifies one reproducible artifact of the paper's evaluation.
type Experiment struct {
	// ID is the artifact identifier: fig3..fig10, tab1..tab4, abl1..abl3.
	ID string
	// Title describes the artifact.
	Title string
}

// Experiments lists every reproducible table and figure in paper order.
func Experiments() []Experiment {
	specs := experiments.All()
	out := make([]Experiment, len(specs))
	for i, s := range specs {
		out[i] = Experiment{ID: s.ID, Title: s.Title}
	}
	return out
}

// ExperimentOptions tune experiment execution.
type ExperimentOptions struct {
	// Seeds are the workload seeds averaged over (default 1, 2, 3).
	Seeds []int64
	// Loads are the demand levels (default 60%, 80%, 100%).
	Loads []float64
	// Quick reduces seeds and loads for fast smoke runs.
	Quick bool
	// Workers bounds the worker pool the policy × load × seed grids of
	// Figs. 4, 6, 9 and 10 (and their SVG charts) fan out on; every other
	// experiment runs serially. 0 = one worker per CPU; results are
	// identical at any setting.
	Workers int
}

func (o ExperimentOptions) internal() experiments.Options {
	if o.Quick {
		opts := experiments.Quick()
		opts.Workers = o.Workers
		return opts
	}
	return experiments.Options{Seeds: o.Seeds, Loads: o.Loads, Workers: o.Workers}
}

// RunExperiment regenerates one table or figure and returns its formatted
// reproduction.
func RunExperiment(id string, opts ExperimentOptions) (string, error) {
	spec, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	res, err := spec.Run(opts.internal())
	if err != nil {
		return "", err
	}
	return res.String(), nil
}

// Scorecard verifies every encoded paper claim against fresh simulation
// runs and returns the formatted pass/fail report — the programmatic answer
// to "does this repository still reproduce the paper?".
func Scorecard(opts ExperimentOptions) string {
	return report.Render(report.Scorecard(opts.internal()))
}

// RenderFigureSVGs regenerates the paper's figures as SVG line charts in
// dir (created if absent) and returns how many files were written.
func RenderFigureSVGs(dir string, opts ExperimentOptions) (int, error) {
	charts, err := experiments.Charts(opts.internal())
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for _, fc := range charts {
		f, err := os.Create(filepath.Join(dir, fc.Name+".svg"))
		if err != nil {
			return 0, err
		}
		if err := fc.Chart.WriteSVG(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return len(charts), nil
}

// Application describes one of the built-in application models.
type Application struct {
	Name string
	// Request is the tuned processor request the paper's submissions use.
	Request int
	// Iterations is the outer-loop iteration count.
	Iterations int
	// SerialIterationTime is one iteration's duration on one processor.
	SerialIterationTime time.Duration
}

// Applications returns the four calibrated application models of the
// evaluation (swim, bt.A, hydro2d, apsi).
func Applications() []Application {
	out := make([]Application, 0, app.NumClasses)
	for _, c := range app.AllClasses() {
		p := app.ProfileFor(c)
		out = append(out, Application{
			Name:                p.Name,
			Request:             p.Request,
			Iterations:          p.Iterations,
			SerialIterationTime: p.SerialIterationTime.Duration(),
		})
	}
	return out
}

// Speedup returns the true speedup of the named application at p processors
// (the Fig. 3 curves).
func Speedup(application string, p int) (float64, error) {
	for _, c := range app.AllClasses() {
		prof := app.ProfileFor(c)
		if prof.Name == application {
			return prof.Speedup.Speedup(p), nil
		}
	}
	return 0, fmt.Errorf("pdpasim: unknown application %q", application)
}

// DedicatedTime returns the named application's standalone execution time on
// procs processors of an otherwise idle machine.
func DedicatedTime(application string, procs int) (time.Duration, error) {
	for _, c := range app.AllClasses() {
		prof := app.ProfileFor(c)
		if prof.Name == application {
			return prof.DedicatedTime(procs).Duration(), nil
		}
	}
	return 0, fmt.Errorf("pdpasim: unknown application %q", application)
}
