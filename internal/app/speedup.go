// Package app models the parallel applications the workloads are made of.
//
// The paper evaluates four OpenMP codes with very different scalability
// (Fig. 3): swim is superlinear in the 8–16 processor range, bt.A scales
// well, hydro2d has medium scalability, and apsi does not scale. All four
// scheduling policies consume only two things from an application: the wall
// time of its outer-loop iterations (measured by the SelfAnalyzer) and its
// malleability. This package therefore models an application as an iterative
// structure driven by a calibrated speedup curve.
package app

import (
	"fmt"
	"math"
	"sort"
)

// SpeedupModel maps a processor count to the application speedup relative to
// one processor. Implementations must return 1 for p == 1 and be defined for
// every p >= 1.
type SpeedupModel interface {
	// Speedup returns S(p). p < 1 is treated as 1.
	Speedup(p int) float64
}

// Efficiency returns S(p)/p for the given model.
func Efficiency(m SpeedupModel, p int) float64 {
	if p < 1 {
		p = 1
	}
	return m.Speedup(p) / float64(p)
}

// Amdahl is the classic analytic model: a fraction Parallel of the work
// scales perfectly, the rest is serial, and an optional per-processor
// Overhead (synchronization, data distribution) grows linearly.
type Amdahl struct {
	// Parallel is the parallelizable fraction in [0, 1].
	Parallel float64
	// Overhead is the extra serial fraction added per additional processor.
	Overhead float64
}

// Speedup implements SpeedupModel.
func (a Amdahl) Speedup(p int) float64 {
	if p <= 1 {
		return 1
	}
	denom := (1 - a.Parallel) + a.Parallel/float64(p) + a.Overhead*float64(p-1)
	if denom <= 0 {
		return float64(p)
	}
	s := 1 / denom
	if s < 0 {
		return 0
	}
	return s
}

// Point is one measured (processors, speedup) sample of a curve.
type Point struct {
	Procs   int
	Speedup float64
}

// Table is a piecewise-linear speedup curve through measured points, the
// representation used for the paper's four applications. Between points the
// curve interpolates linearly; beyond the last point it stays flat (the
// conservative assumption the paper's schedulers also make).
type Table struct {
	points []Point
}

// NewTable builds a Table from points. Points are sorted by processor count.
// The curve must include p=1 with speedup 1 or it is added implicitly.
// Duplicate processor counts or non-positive speedups are rejected.
func NewTable(points ...Point) (*Table, error) {
	ps := make([]Point, 0, len(points)+1)
	havep1 := false
	for _, p := range points {
		if p.Procs < 1 {
			return nil, fmt.Errorf("app: table point with procs %d < 1", p.Procs)
		}
		if p.Speedup <= 0 {
			return nil, fmt.Errorf("app: table point with non-positive speedup %v", p.Speedup)
		}
		if p.Procs == 1 {
			if p.Speedup != 1 {
				return nil, fmt.Errorf("app: speedup at 1 processor must be 1, got %v", p.Speedup)
			}
			havep1 = true
		}
		ps = append(ps, p)
	}
	if !havep1 {
		ps = append(ps, Point{Procs: 1, Speedup: 1})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Procs < ps[j].Procs })
	for i := 1; i < len(ps); i++ {
		if ps[i].Procs == ps[i-1].Procs {
			return nil, fmt.Errorf("app: duplicate table point at %d processors", ps[i].Procs)
		}
	}
	return &Table{points: ps}, nil
}

// MustTable is NewTable that panics on error, for static curve definitions.
func MustTable(points ...Point) *Table {
	t, err := NewTable(points...)
	if err != nil {
		panic(err)
	}
	return t
}

// Speedup implements SpeedupModel by linear interpolation.
func (t *Table) Speedup(p int) float64 {
	if p < 1 {
		p = 1
	}
	pts := t.points
	if p <= pts[0].Procs {
		return pts[0].Speedup
	}
	last := pts[len(pts)-1]
	if p >= last.Procs {
		return last.Speedup
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Procs >= p })
	if pts[i].Procs == p {
		return pts[i].Speedup
	}
	lo, hi := pts[i-1], pts[i]
	frac := float64(p-lo.Procs) / float64(hi.Procs-lo.Procs)
	return lo.Speedup + frac*(hi.Speedup-lo.Speedup)
}

// Scaled wraps a model, multiplying its speedup by a constant factor > 0
// (keeping S(1) = 1). It is used to derive perturbed curves in tests and
// ablations.
type Scaled struct {
	Model  SpeedupModel
	Factor float64
}

// Speedup implements SpeedupModel.
func (s Scaled) Speedup(p int) float64 {
	if p <= 1 {
		return 1
	}
	v := s.Model.Speedup(p) * s.Factor
	return math.Max(v, 0.01)
}

// MaxProcsAtEfficiency returns the largest processor count in [1, maxProcs]
// whose efficiency is at least target — the allocation PDPA's search
// converges toward in a dedicated machine.
func MaxProcsAtEfficiency(m SpeedupModel, target float64, maxProcs int) int {
	best := 1
	for p := 1; p <= maxProcs; p++ {
		if Efficiency(m, p) >= target {
			best = p
		}
	}
	return best
}
