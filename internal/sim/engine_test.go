package sim

import (
	"context"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds = %v", got)
	}
	if (Second).String() != "1.000s" {
		t.Fatalf("String = %q", Second.String())
	}
	if Forever.String() != "forever" {
		t.Fatalf("Forever.String = %q", Forever.String())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3*Second, "c", func() { order = append(order, 3) })
	e.At(1*Second, "a", func() { order = append(order, 1) })
	e.At(2*Second, "b", func() { order = append(order, 2) })
	e.Run(Forever)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3*Second {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(Second, "first", func() { order = append(order, "first") })
	e.At(Second, "second", func() { order = append(order, "second") })
	e.Run(Forever)
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("tie broken wrongly: %v", order)
	}
}

func TestEngineDeadline(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1*Second, "in", func() { ran++ })
	e.At(2*Second, "at", func() { ran++ })
	e.At(3*Second, "out", func() { ran++ })
	e.Run(2 * Second)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (deadline inclusive)", ran)
	}
	if e.Now() != 2*Second {
		t.Fatalf("Now = %v, want clock advanced to deadline", e.Now())
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d", len(e.queue))
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.At(Second, "x", func() { ran = true })
	if ev.pos == 0 {
		t.Fatal("event should be scheduled")
	}
	e.Cancel(ev)
	if ev.pos != 0 {
		t.Fatal("event should be cancelled")
	}
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(nil)
	e.Run(Forever)
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i)*Second, "n", func() { order = append(order, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run(Forever)
	if len(order) != 8 {
		t.Fatalf("order = %v", order)
	}
	for _, v := range order {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var hit []Time
	e.At(Second, "outer", func() {
		e.After(Second, "inner", func() { hit = append(hit, e.Now()) })
	})
	e.Run(Forever)
	if len(hit) != 1 || hit[0] != 2*Second {
		t.Fatalf("hit = %v", hit)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5*Second, "later", func() {})
	e.Run(Forever)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(Second, "past", func() {})
}

func TestEngineNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	NewEngine().At(0, "nil", nil)
}

func TestEngineAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-5*Second, "neg", func() { ran = true })
	e.Run(Forever)
	if !ran || e.Now() != 0 {
		t.Fatalf("negative After mishandled: ran=%v now=%v", ran, e.Now())
	}
}

// Property: for any set of scheduled times, execution order is sorted.
func TestEngineOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, off := range offsets {
			tt := Time(off) * Millisecond
			e.At(tt, "p", func() { seen = append(seen, e.Now()) })
		}
		e.Run(Forever)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineInterruptStops(t *testing.T) {
	e := NewEngine()
	var ran int
	var tick func()
	tick = func() {
		ran++
		e.After(Millisecond, "tick", tick)
	}
	e.After(Millisecond, "tick", tick)
	stop := errSentinel("stop")
	e.SetInterrupt(func() error {
		if ran >= 1000 {
			return stop
		}
		return nil
	})
	e.Run(Forever)
	if e.InterruptErr() != stop {
		t.Fatalf("InterruptErr = %v, want %v", e.InterruptErr(), stop)
	}
	// The check runs every interruptStride events, so at most one stride of
	// extra events executes after the condition trips.
	if ran < 1000 || ran > 1000+interruptStride {
		t.Fatalf("ran %d events; interrupt was not prompt", ran)
	}
}

func TestEngineInterruptImmediate(t *testing.T) {
	// An interrupt that is already tripped aborts before any event runs.
	e := NewEngine()
	e.After(0, "x", func() { t.Fatal("event ran despite tripped interrupt") })
	e.SetInterrupt(func() error { return errSentinel("dead") })
	e.Run(Forever)
	if e.InterruptErr() == nil || e.Executed != 0 {
		t.Fatalf("InterruptErr = %v, Executed = %d", e.InterruptErr(), e.Executed)
	}
}

func TestEngineInterruptClearedBetweenRuns(t *testing.T) {
	e := NewEngine()
	e.SetInterrupt(func() error { return errSentinel("dead") })
	e.After(0, "x", func() {})
	e.Run(Forever)
	if e.InterruptErr() == nil {
		t.Fatal("first run should be interrupted")
	}
	e.SetInterrupt(nil)
	ran := false
	e.After(0, "y", func() { ran = true })
	e.Run(Forever)
	if e.InterruptErr() != nil || !ran {
		t.Fatalf("second run: err=%v ran=%v", e.InterruptErr(), ran)
	}
}

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// benchEngine builds a chain of n self-rescheduling events, the hot shape of
// a simulation run.
func benchEngine(b *testing.B, interrupt func() error) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		left := 10000
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.After(Millisecond, "tick", tick)
			}
		}
		e.After(Millisecond, "tick", tick)
		e.SetInterrupt(interrupt)
		e.Run(Forever)
		if e.InterruptErr() != nil {
			b.Fatal(e.InterruptErr())
		}
	}
}

// BenchmarkEngineInterrupt guards the satellite requirement that checking
// ctx.Err() between events has negligible overhead: compare the /none and
// /ctx variants — the delta is the full cost of cancellation support.
func BenchmarkEngineInterrupt(b *testing.B) {
	b.Run("none", func(b *testing.B) { benchEngine(b, nil) })
	b.Run("ctx", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		benchEngine(b, ctx.Err)
	})
}
