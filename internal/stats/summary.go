package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar observations and reports the usual moments and
// order statistics. The zero value is ready to use.
type Summary struct {
	values []float64
	sum    float64
	sorted bool
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// N returns the number of observations.
func (s *Summary) N() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Stddev returns the sample standard deviation (n-1 denominator), or 0 with
// fewer than two observations.
func (s *Summary) Stddev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CoefficientOfVariation returns stddev/mean, or 0 when the mean is 0.
func (s *Summary) CoefficientOfVariation() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Stddev() / m
}

// tCritical95 holds two-sided 95% Student-t critical values for small
// sample sizes (index = degrees of freedom); beyond the table the normal
// approximation 1.96 applies.
var tCritical95 = []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447,
	2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131}

// ConfidenceInterval95 returns the half-width of the two-sided 95%
// confidence interval of the mean (Student's t for small samples). It
// returns 0 with fewer than two observations.
func (s *Summary) ConfidenceInterval95() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.96
	if df < len(tCritical95) {
		t = tCritical95[df]
	}
	return t * s.Stddev() / math.Sqrt(float64(n))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics, or 0 with no observations.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// String summarizes the distribution in one line.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f max=%.3f",
		s.N(), s.Mean(), s.Stddev(), s.Min(), s.Median(), s.Max())
}

// TimeWeighted accumulates a piecewise-constant time series (for example the
// multiprogramming level, or the number of allocated CPUs) and reports its
// time-weighted average. Values are weighted by how long they were in effect.
type TimeWeighted struct {
	lastTime  float64
	lastValue float64
	area      float64
	total     float64
	started   bool
}

// Observe records that the series took value v at time t. The previous value
// is assumed to have held from the previous observation until t. Observations
// must have non-decreasing times.
func (tw *TimeWeighted) Observe(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.lastTime = t
		tw.lastValue = v
		return
	}
	if t < tw.lastTime {
		panic(fmt.Sprintf("stats: TimeWeighted.Observe time went backwards: %v < %v", t, tw.lastTime))
	}
	dt := t - tw.lastTime
	tw.area += tw.lastValue * dt
	tw.total += dt
	tw.lastTime = t
	tw.lastValue = v
}

// Finish closes the series at time t without changing the value.
func (tw *TimeWeighted) Finish(t float64) {
	if tw.started {
		tw.Observe(t, tw.lastValue)
	}
}

// Mean returns the time-weighted average, or 0 if no time has elapsed.
func (tw *TimeWeighted) Mean() float64 {
	if tw.total == 0 {
		return 0
	}
	return tw.area / tw.total
}
