package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Stream("arrivals")
	// Consuming the parent must not perturb substream derivation.
	for i := 0; i < 50; i++ {
		r.Float64()
	}
	s2 := NewRNG(7).Stream("arrivals")
	for i := 0; i < 100; i++ {
		if s1.Float64() != s2.Float64() {
			t.Fatalf("substream not stable under parent consumption at draw %d", i)
		}
	}
}

func TestRNGStreamsDifferByName(t *testing.T) {
	r := NewRNG(7)
	a := r.Stream("a")
	b := r.Stream("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams %q draws look identical (%d/100 equal)", "a/b", same)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(1)
	var s Summary
	for i := 0; i < 20000; i++ {
		s.Add(r.Exp(3.0))
	}
	if got := s.Mean(); math.Abs(got-3.0) > 0.1 {
		t.Fatalf("Exp(3) mean = %v, want ~3.0", got)
	}
}

func TestExpPanicsOnNonPositiveMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestLogNormalFactor(t *testing.T) {
	r := NewRNG(3)
	if f := r.LogNormalFactor(0); f != 1 {
		t.Fatalf("sigma=0 factor = %v, want 1", f)
	}
	var s Summary
	for i := 0; i < 10000; i++ {
		f := r.LogNormalFactor(0.05)
		if f <= 0 {
			t.Fatalf("factor %v not positive", f)
		}
		s.Add(math.Log(f))
	}
	if math.Abs(s.Mean()) > 0.01 {
		t.Fatalf("log-factor mean = %v, want ~0", s.Mean())
	}
	if math.Abs(s.Stddev()-0.05) > 0.01 {
		t.Fatalf("log-factor stddev = %v, want ~0.05", s.Stddev())
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	addAll(&s, []float64{4, 1, 3, 2})
	if s.N() != 4 {
		t.Fatalf("N=%d", s.N())
	}
	if s.Mean() != 2.5 {
		t.Fatalf("Mean=%v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("Min=%v Max=%v", s.Min(), s.Max())
	}
	if s.Median() != 2.5 {
		t.Fatalf("Median=%v", s.Median())
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Stddev()-want) > 1e-12 {
		t.Fatalf("Stddev=%v want %v", s.Stddev(), want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Stddev() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryPercentileBounds(t *testing.T) {
	var s Summary
	addAll(&s, []float64{10, 20, 30})
	if s.Percentile(-5) != 10 || s.Percentile(0) != 10 {
		t.Fatal("low percentile should clamp to min")
	}
	if s.Percentile(100) != 30 || s.Percentile(150) != 30 {
		t.Fatal("high percentile should clamp to max")
	}
	if got := s.Percentile(50); got != 20 {
		t.Fatalf("p50=%v want 20", got)
	}
}

func TestSummaryAddAfterSortedQuery(t *testing.T) {
	var s Summary
	addAll(&s, []float64{3, 1})
	_ = s.Min() // forces sort
	s.Add(0)
	if s.Min() != 0 {
		t.Fatalf("Min after late Add = %v, want 0", s.Min())
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 2)
	tw.Observe(10, 4)
	tw.Observe(20, 0)
	tw.Finish(30)
	// 2 for 10s, 4 for 10s, 0 for 10s => mean 2.
	if got := tw.Mean(); got != 2 {
		t.Fatalf("Mean=%v want 2", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean() != 0 {
		t.Fatalf("empty Mean=%v", tw.Mean())
	}
	tw.Finish(10) // must not panic when never observed
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	var tw TimeWeighted
	tw.Observe(5, 1)
	tw.Observe(4, 1)
}

// Property: the mean of a Summary always lies between Min and Max, and the
// percentile function is monotone.
func TestSummaryProperties(t *testing.T) {
	f := func(vs []float64) bool {
		var s Summary
		clean := vs[:0]
		for _, v := range vs {
			// Keep the domain finite and far from overflow: the invariant
			// under test is about ordering, not extreme-magnitude arithmetic.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		addAll(&s, clean)
		if s.Mean() < s.Min()-1e-9*math.Abs(s.Min())-1e-9 ||
			s.Mean() > s.Max()+1e-9*math.Abs(s.Max())+1e-9 {
			return false
		}
		prev := s.Percentile(0)
		for p := 10.0; p <= 100; p += 10 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfidenceInterval95(t *testing.T) {
	var s Summary
	if s.ConfidenceInterval95() != 0 {
		t.Fatal("empty CI should be 0")
	}
	s.Add(5)
	if s.ConfidenceInterval95() != 0 {
		t.Fatal("single-sample CI should be 0")
	}
	// Two samples: df=1, t=12.706, sd = sqrt(2)/sqrt(2)... values 4 and 6:
	// mean 5, sd = sqrt(2), CI = 12.706*sqrt(2)/sqrt(2) = 12.706.
	s.Add(7) // values 5,7: sd = sqrt(2), CI = 12.706*sqrt(2)/sqrt(2)=12.706
	want := 12.706
	if got := s.ConfidenceInterval95(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI = %v, want %v", got, want)
	}
	// Large n approaches the normal z: CI ~ 1.96*sd/sqrt(n).
	var big Summary
	r := NewRNG(9)
	for i := 0; i < 400; i++ {
		big.Add(r.src.NormFloat64()*2 + 10)
	}
	approx := 1.96 * big.Stddev() / math.Sqrt(400)
	if got := big.ConfidenceInterval95(); math.Abs(got-approx) > 1e-9 {
		t.Fatalf("large-n CI = %v, want %v", got, approx)
	}
	if big.ConfidenceInterval95() > 0.3 {
		t.Fatalf("CI suspiciously wide: %v", big.ConfidenceInterval95())
	}
}

// addAll records every observation in vs.
func addAll(s *Summary, vs []float64) {
	for _, v := range vs {
		s.Add(v)
	}
}
