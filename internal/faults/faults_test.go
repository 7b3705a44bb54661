package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var inj *Injector
	if err := inj.Hit(context.Background(), SiteWorkerStart); err != nil {
		t.Fatalf("nil injector returned %v", err)
	}
	inj.Sleep(SiteCacheHit)
	if inj.Injected(SiteWorkerStart) != 0 {
		t.Fatal("nil injector counted occurrences")
	}
}

func TestOccurrenceWindow(t *testing.T) {
	inj := New(1, Rule{Site: SiteWorkerStart, Kind: KindError, After: 1, Count: 2})
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, inj.Hit(context.Background(), SiteWorkerStart) != nil)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d: injected=%v, want %v (window After=1 Count=2)", i, got[i], want[i])
		}
	}
	if inj.seen[SiteWorkerStart] != 5 || inj.Injected(SiteWorkerStart) != 2 {
		t.Fatalf("seen=%d injected=%d, want 5/2", inj.seen[SiteWorkerStart], inj.Injected(SiteWorkerStart))
	}
	// Other sites are counted independently.
	if inj.seen[SiteHTTPRequest] != 0 {
		t.Fatal("sites share occurrence counters")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	sentinel := errors.New("second rule")
	inj := New(1,
		Rule{Site: SiteWorkerStart, Kind: KindError, Count: 1},
		Rule{Site: SiteWorkerStart, Kind: KindError, Err: sentinel},
	)
	if err := inj.Hit(context.Background(), SiteWorkerStart); !errors.Is(err, ErrInjected) {
		t.Fatalf("first occurrence: got %v, want ErrInjected", err)
	}
	if err := inj.Hit(context.Background(), SiteWorkerStart); !errors.Is(err, sentinel) {
		t.Fatalf("second occurrence: got %v, want sentinel from second rule", err)
	}
}

func TestProbIsSeededDeterministic(t *testing.T) {
	draw := func() []bool {
		inj := New(42, Rule{Site: SiteWorkerStart, Kind: KindError, Prob: 0.5})
		var got []bool
		for i := 0; i < 32; i++ {
			got = append(got, inj.Hit(context.Background(), SiteWorkerStart) != nil)
		}
		return got
	}
	a, b := draw(), draw()
	some, all := false, true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("occurrence %d differs across identically seeded injectors", i)
		}
		some = some || a[i]
		all = all && a[i]
	}
	if !some || all {
		t.Fatalf("Prob=0.5 over 32 draws fired always or never: %v", a)
	}
}

func TestErrorFault(t *testing.T) {
	cause := errors.New("flaky backend")
	inj := New(1, Rule{Site: SiteWorkerFinish, Kind: KindError, Err: cause, Transient: true})
	err := inj.Hit(context.Background(), SiteWorkerFinish)
	if !errors.Is(err, cause) {
		t.Fatalf("errors.Is lost the cause: %v", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || !fe.Transient() || fe.Site != SiteWorkerFinish {
		t.Fatalf("want transient *Error at worker_finish, got %#v", err)
	}
}

func TestPanicFault(t *testing.T) {
	inj := New(1, Rule{Site: SiteWorkerStart, Kind: KindPanic})
	defer func() {
		if recover() == nil {
			t.Fatal("KindPanic did not panic")
		}
	}()
	inj.Hit(context.Background(), SiteWorkerStart)
}

func TestHangHonorsContext(t *testing.T) {
	inj := New(1, Rule{Site: SiteWorkerStart, Kind: KindHang})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.Hit(ctx, SiteWorkerStart)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("hang returned before the context expired")
	}
}

func TestDelayFault(t *testing.T) {
	inj := New(1, Rule{Site: SiteCacheHit, Kind: KindDelay, Delay: 20 * time.Millisecond})
	start := time.Now()
	inj.Sleep(SiteCacheHit)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay slept %v, want >= 20ms", d)
	}
}

func TestSleepIgnoresNonDelayRules(t *testing.T) {
	inj := New(1, Rule{Site: SiteCacheHit, Kind: KindPanic})
	inj.Sleep(SiteCacheHit) // must neither panic nor error
	if inj.seen[SiteCacheHit] != 1 {
		t.Fatal("Sleep did not consume the occurrence")
	}
}
