package sim

import (
	"math/rand"
	"testing"
)

// TestEngineHeapOrderUnderChurn is the heap-ordering property under
// randomized fault timing: payload events are scheduled at random times and
// then disturbed mid-run by fault events that cancel or reschedule random
// victims. Whatever the interleaving, the engine must execute exactly the
// surviving events, each once, at its final scheduled time, in (time, seq)
// order — the documented total order of the event heap.
func TestEngineHeapOrderUnderChurn(t *testing.T) {
	type modelEvent struct {
		ev        *Event
		when      Time
		cancelled bool
		runs      int
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()

		const payloads = 60
		model := make([]*modelEvent, payloads)
		type executed struct {
			at  Time
			seq uint64
		}
		var order []executed
		for i := 0; i < payloads; i++ {
			me := &modelEvent{when: Time(rng.Intn(50)) * Millisecond}
			me.ev = e.At(me.when, "payload", func() {
				me.runs++
				order = append(order, executed{at: e.Now(), seq: me.ev.seq})
				if e.Now() != me.when {
					t.Fatalf("seed %d: event ran at %v, model says %v", seed, e.Now(), me.when)
				}
			})
			model[i] = me
		}
		// Fault events strike at random times during the run and disturb
		// random victims. The model is updated only when the engine reports
		// the disturbance took effect, so executed-or-cancelled victims stay
		// consistent.
		for f := 0; f < 40; f++ {
			at := Time(rng.Intn(50)) * Millisecond
			victim := model[rng.Intn(payloads)]
			if rng.Intn(2) == 0 {
				e.At(at, "fault_cancel", func() {
					if victim.ev.pos > 0 {
						e.Cancel(victim.ev)
						victim.cancelled = true
					}
				})
			} else {
				e.At(at, "fault_reschedule", func() {
					to := e.Now() + Time(rng.Intn(20))*Millisecond
					if e.Reschedule(victim.ev, to) {
						victim.when = to
					}
				})
			}
		}
		e.Run(Forever)

		for i, me := range model {
			want := 1
			if me.cancelled {
				want = 0
			}
			if me.runs != want {
				t.Fatalf("seed %d: event %d ran %d times (cancelled=%v), want %d",
					seed, i, me.runs, me.cancelled, want)
			}
		}
		// Execution order must be non-decreasing in time, and strictly
		// seq-ordered within each instant.
		for i := 1; i < len(order); i++ {
			prev, cur := order[i-1], order[i]
			if cur.at < prev.at {
				t.Fatalf("seed %d: executed out of time order: %v after %v", seed, cur.at, prev.at)
			}
			if cur.at == prev.at && cur.seq <= prev.seq {
				t.Fatalf("seed %d: tie at %v broken out of scheduling order (seq %d after %d)",
					seed, cur.at, cur.seq, prev.seq)
			}
		}
		if len(e.queue) != 0 {
			t.Fatalf("seed %d: %d events still pending after the run", seed, len(e.queue))
		}
	}
}
