// Package periodicity implements the Dynamic Periodicity Detector of
// Freitag, Corbalan, and Labarta (IPDPS 2001), the tool the NANOS
// environment uses to find the iterative structure of applications whose
// source is not available (Section 3.1).
//
// The detector consumes the stream of parallel-loop identifiers (the
// addresses of the encapsulated loop functions) as the application executes
// them, and emits a boolean per sample indicating whether that sample begins
// a new period of the detected iteration pattern. The SelfAnalyzer uses
// those period starts as outer-loop iteration boundaries.
package periodicity

// DefaultMaxPeriod bounds the pattern lengths the detector searches.
const DefaultMaxPeriod = 64

// Detector finds the smallest repeating period in a stream of loop
// identifiers. The zero value is not usable; call NewDetector.
type Detector struct {
	maxPeriod int
	history   []uint64
	// period is the currently confirmed period length (0 = none).
	period int
	// confirmed counts how many consecutive full periods matched.
	confirmed int
	// posInPeriod is the index of the next expected sample within the
	// detected period.
	posInPeriod int
}

// NewDetector returns a detector that searches periods up to maxPeriod
// samples long (DefaultMaxPeriod if maxPeriod <= 0).
func NewDetector(maxPeriod int) *Detector {
	if maxPeriod <= 0 {
		maxPeriod = DefaultMaxPeriod
	}
	return &Detector{maxPeriod: maxPeriod}
}

// Period returns the detected period length, or 0 if no period is confirmed
// yet.
func (d *Detector) Period() int {
	if d.confirmed < 3 {
		return 0
	}
	return d.period
}

// Observe feeds one loop identifier and reports whether this sample
// completes a full period of a confirmed pattern — i.e. the next sample
// starts a new outer-loop iteration. Detection requires seeing at least two
// full consecutive repetitions.
func (d *Detector) Observe(loop uint64) bool {
	d.history = append(d.history, loop)
	if len(d.history) > 4*d.maxPeriod {
		// Keep a bounded window: enough for detection and re-detection
		// (the search needs 3×maxPeriod samples).
		d.history = append(d.history[:0], d.history[len(d.history)-3*d.maxPeriod:]...)
	}

	if d.Period() > 0 {
		// Follow the confirmed pattern; fall back to searching if it breaks.
		expected := d.history[len(d.history)-1-d.period]
		if loop == expected {
			d.posInPeriod++
			if d.posInPeriod == d.period {
				d.posInPeriod = 0
				d.confirmed++
				return true
			}
			return false
		}
		d.reset()
		return false
	}

	// Search for the smallest p such that the last 3p samples are three
	// equal repetitions. Requiring three (not two) keeps incidental
	// repetitions at pattern junctions from confirming a wrong short period.
	n := len(d.history)
	for p := 1; p <= d.maxPeriod && 3*p <= n; p++ {
		if equalThirds(d.history[n-3*p:]) {
			d.period = p
			d.confirmed = 3
			d.posInPeriod = 0
			// The current sample completes the third repetition; the next
			// sample starts a new period, so this one is a period *end*,
			// reported as a boundary.
			return true
		}
	}
	return false
}

func (d *Detector) reset() {
	d.period = 0
	d.confirmed = 0
	d.posInPeriod = 0
}

func equalThirds(s []uint64) bool {
	p := len(s) / 3
	for i := 0; i < p; i++ {
		if s[i] != s[p+i] || s[p+i] != s[2*p+i] {
			return false
		}
	}
	return true
}
