package periodicity

import "testing"

// FuzzDetector checks the detector never panics, keeps bounded memory, and
// reports only sane periods for arbitrary loop-address streams.
func FuzzDetector(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{7, 7, 7, 7})
	f.Add([]byte{})
	f.Add([]byte{1, 2, 1, 2, 9, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, stream []byte) {
		d := NewDetector(16)
		for _, b := range stream {
			d.Observe(uint64(b))
			if p := d.Period(); p < 0 || p > 16 {
				t.Fatalf("period %d out of range", p)
			}
			if len(d.history) > 4*16 {
				t.Fatalf("history grew to %d", len(d.history))
			}
			if d.Period() == 0 && confirmations(d) != 0 {
				t.Fatal("confirmations without a period")
			}
		}
	})
}
