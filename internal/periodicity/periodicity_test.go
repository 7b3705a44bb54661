package periodicity

import (
	"testing"
	"testing/quick"

	"pdpasim/internal/app"
)

// feed returns the indices at which Observe reported a period boundary.
func feed(d *Detector, stream []uint64) []int {
	var marks []int
	for i, s := range stream {
		if d.Observe(s) {
			marks = append(marks, i)
		}
	}
	return marks
}

func repeat(pattern []uint64, n int) []uint64 {
	out := make([]uint64, 0, len(pattern)*n)
	for i := 0; i < n; i++ {
		out = append(out, pattern...)
	}
	return out
}

func TestDetectsSimplePattern(t *testing.T) {
	d := NewDetector(0)
	pattern := []uint64{10, 20, 30}
	marks := feed(d, repeat(pattern, 5))
	if d.Period() != 3 {
		t.Fatalf("period = %d, want 3", d.Period())
	}
	// First detection after three repetitions (index 8), then every 3 samples.
	want := []int{8, 11, 14}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestDetectsConstantStream(t *testing.T) {
	d := NewDetector(0)
	marks := feed(d, repeat([]uint64{7}, 6))
	if d.Period() != 1 {
		t.Fatalf("period = %d, want 1", d.Period())
	}
	if len(marks) != 4 { // boundary after every sample from the third on
		t.Fatalf("marks = %v", marks)
	}
}

func TestFindsSmallestPeriod(t *testing.T) {
	d := NewDetector(0)
	// ABAB... could be read as period 2 or 4; the smallest must win.
	feed(d, repeat([]uint64{1, 2}, 6))
	if d.Period() != 2 {
		t.Fatalf("period = %d, want 2", d.Period())
	}
}

func TestPatternBreakResets(t *testing.T) {
	d := NewDetector(0)
	feed(d, repeat([]uint64{1, 2, 3}, 4))
	if d.Period() != 3 {
		t.Fatalf("period = %d", d.Period())
	}
	// Break the pattern.
	if d.Observe(99) {
		t.Fatal("broken sample reported as boundary")
	}
	if d.Period() != 0 {
		t.Fatalf("period after break = %d, want 0", d.Period())
	}
	// A new pattern can be learned afterwards.
	feed(d, repeat([]uint64{5, 6}, 4))
	if d.Period() != 2 {
		t.Fatalf("re-detected period = %d, want 2", d.Period())
	}
}

func TestNoFalsePositiveOnAperiodicStream(t *testing.T) {
	d := NewDetector(0)
	stream := make([]uint64, 100)
	for i := range stream {
		stream[i] = uint64(i * i % 97) // no short repetition
	}
	// A few incidental boundaries may fire, but no stable period should
	// survive to the end.
	feed(d, stream)
	if p := d.Period(); p != 0 && confirmations(d) > 3 {
		t.Fatalf("confirmed period %d on aperiodic stream", p)
	}
}

func TestMaxPeriodBound(t *testing.T) {
	d := NewDetector(2)
	feed(d, repeat([]uint64{1, 2, 3}, 6)) // period 3 > bound 2
	if d.Period() != 0 {
		t.Fatalf("period = %d beyond bound", d.Period())
	}
}

func TestConfirmationsGrow(t *testing.T) {
	d := NewDetector(0)
	feed(d, repeat([]uint64{1, 2}, 5))
	if confirmations(d) < 3 {
		t.Fatalf("confirmations = %d", confirmations(d))
	}
}

func TestLongStreamBoundedMemory(t *testing.T) {
	d := NewDetector(8)
	for i := 0; i < 100000; i++ {
		d.Observe(uint64(i % 4))
	}
	if len(d.history) > 4*8 {
		t.Fatalf("history grew unbounded: %d", len(d.history))
	}
	if d.Period() != 4 {
		t.Fatalf("period = %d", d.Period())
	}
}

// TestAppLoopSignatures checks the detector finds every built-in
// application's loop signature — the paper's binary-only monitoring path.
func TestAppLoopSignatures(t *testing.T) {
	for _, c := range app.AllClasses() {
		prof := app.ProfileFor(c)
		d := NewDetector(0)
		marks := feed(d, repeat(prof.LoopSignature, 6))
		if d.Period() != len(prof.LoopSignature) {
			t.Errorf("%s: period = %d, want %d", prof.Name, d.Period(), len(prof.LoopSignature))
		}
		if len(marks) < 3 {
			t.Errorf("%s: only %d boundaries", prof.Name, len(marks))
		}
	}
}

// Property: for any pattern of length 1..6 repeated many times, any
// confirmed period never exceeds the true pattern length, and boundaries
// keep firing (the detector never starves on a periodic stream). Junction
// artifacts may make the detector lock briefly onto a shorter pseudo-period
// and reset; what matters for the SelfAnalyzer is a steady boundary supply.
func TestDetectionProperty(t *testing.T) {
	f := func(raw []byte, lenRaw uint8) bool {
		plen := int(lenRaw)%6 + 1
		if len(raw) < plen {
			return true
		}
		pattern := make([]uint64, plen)
		for i := 0; i < plen; i++ {
			pattern[i] = uint64(raw[i])
		}
		d := NewDetector(0)
		marks := feed(d, repeat(pattern, 16))
		if p := d.Period(); p > plen {
			return false
		}
		// At least one boundary per two repetitions over the last 10 reps.
		late := 0
		for _, m := range marks {
			if m >= 6*plen {
				late++
			}
		}
		return late >= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// confirmations returns how many consecutive repetitions of the current
// period have been observed (0 when no period is confirmed).
func confirmations(d *Detector) int {
	if d.Period() == 0 {
		return 0
	}
	return d.confirmed
}
