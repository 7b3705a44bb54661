// Package faults is a seeded, deterministic fault injector for the daemon
// stack. Instrumented code holds a possibly-nil *Injector and evaluates it
// at named sites; a nil injector — the production configuration — is a no-op
// costing one nil check, mirroring the nil-guarded *obs.Trace pattern.
//
// Rules select occurrences of a site by position (After/Count windows) or by
// a seeded probability, so a chaos test can script "the second simulation
// attempt panics" and get the same failure on every run, at every worker
// count, under -count=5.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Site names a code location instrumented for fault injection.
type Site uint8

const (
	// SiteWorkerStart fires as a pool worker begins a simulation attempt.
	SiteWorkerStart Site = iota
	// SiteWorkerFinish fires after a simulation attempt succeeds, before the
	// pool records its outcome.
	SiteWorkerFinish
	// SiteCacheHit fires while a cache-hit submission is being served.
	SiteCacheHit
	// SiteHTTPRequest fires at the top of the daemon's HTTP handler.
	SiteHTTPRequest
	// SiteNodeHeartbeat fires as a fleet node agent is about to send a
	// heartbeat to its coordinator; an injected error drops that heartbeat,
	// so a rule here simulates a flaky or dead node.
	SiteNodeHeartbeat
	// SiteNodeDispatch fires as the coordinator is about to dispatch a run
	// to a node; an injected error fails that dispatch attempt and the
	// coordinator falls over to the next candidate node.
	SiteNodeDispatch

	siteCount
)

var siteNames = [siteCount]string{
	SiteWorkerStart:   "worker_start",
	SiteWorkerFinish:  "worker_finish",
	SiteCacheHit:      "cache_hit",
	SiteHTTPRequest:   "http_request",
	SiteNodeHeartbeat: "node_heartbeat",
	SiteNodeDispatch:  "node_dispatch",
}

// String returns the site's name.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", int(s))
}

// Kind is the failure mode a rule injects.
type Kind uint8

const (
	// KindPanic panics at the site — exercises recovery paths.
	KindPanic Kind = iota + 1
	// KindHang blocks until the site's context is cancelled, then returns
	// the context error: a run that never progresses on its own.
	KindHang
	// KindDelay sleeps for Rule.Delay (bounded by the context), then lets
	// the site proceed normally.
	KindDelay
	// KindError fails the site with Rule.Err (ErrInjected when unset).
	KindError
)

// Rule matches a window of occurrences at one site and injects a fault.
// Occurrences are counted per site from zero in evaluation order, which is
// what makes scripted scenarios deterministic.
type Rule struct {
	Site Site
	Kind Kind
	// After skips the first After occurrences of the site.
	After int
	// Count bounds the occurrence window to [After, After+Count); 0 leaves
	// it open-ended.
	Count int
	// Prob, when positive, fires the rule on each windowed occurrence with
	// this probability. Draws come from the injector's seeded generator, so
	// a fixed seed and evaluation order reproduce the same faults. 0 fires
	// on every windowed occurrence.
	Prob float64
	// Delay is the KindDelay sleep, and an optional extra latency before a
	// KindError failure surfaces.
	Delay time.Duration
	// Err overrides the KindError error; it is wrapped, so errors.Is still
	// finds it. Nil uses ErrInjected.
	Err error
	// Transient marks the injected error retryable: the returned *Error
	// reports Transient() == true, which bounded-retry loops honor.
	Transient bool
}

// ErrInjected is the default error carried by KindError faults.
var ErrInjected = errors.New("injected fault")

// Error is the error returned by KindError faults.
type Error struct {
	Site      Site
	transient bool
	err       error
}

func (e *Error) Error() string { return fmt.Sprintf("faults: %v at %s", e.err, e.Site) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *Error) Unwrap() error { return e.err }

// Transient reports whether the fault models a retryable condition.
func (e *Error) Transient() bool { return e.transient }

// Injector evaluates rules at instrumented sites. A nil *Injector is a
// no-op at every site. All methods are safe for concurrent use.
type Injector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []Rule
	seen     [siteCount]int
	injected [siteCount]int
}

// New returns an injector applying rules in order (first match per
// occurrence wins), with probability draws driven by seed.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: append([]Rule(nil), rules...),
	}
}

// plan counts one occurrence of site and returns the first rule firing on it.
func (i *Injector) plan(site Site) (Rule, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := i.seen[site]
	i.seen[site]++
	for _, r := range i.rules {
		if r.Site != site || n < r.After {
			continue
		}
		if r.Count > 0 && n >= r.After+r.Count {
			continue
		}
		if r.Prob > 0 && i.rng.Float64() >= r.Prob {
			continue
		}
		i.injected[site]++
		return r, true
	}
	return Rule{}, false
}

// Hit evaluates one occurrence of site: it returns nil to proceed, panics,
// hangs, sleeps, or returns an injected error according to the first
// matching rule. ctx bounds hangs and delays.
func (i *Injector) Hit(ctx context.Context, site Site) error {
	if i == nil {
		return nil
	}
	r, ok := i.plan(site)
	if !ok {
		return nil
	}
	switch r.Kind {
	case KindPanic:
		panic(fmt.Sprintf("faults: injected panic at %s", site))
	case KindHang:
		if ctx == nil {
			select {}
		}
		<-ctx.Done()
		return ctx.Err()
	case KindDelay:
		return sleep(ctx, r.Delay)
	case KindError:
		if r.Delay > 0 {
			if err := sleep(ctx, r.Delay); err != nil {
				return err
			}
		}
		err := r.Err
		if err == nil {
			err = ErrInjected
		}
		return &Error{Site: site, transient: r.Transient, err: err}
	}
	return nil
}

// Sleep evaluates one occurrence of site honoring only KindDelay rules —
// for call sites where a panic or error cannot be expressed, such as
// serving an already-cached result. Other matching rules are consumed but
// ignored.
func (i *Injector) Sleep(site Site) {
	if i == nil {
		return
	}
	if r, ok := i.plan(site); ok && r.Kind == KindDelay {
		time.Sleep(r.Delay)
	}
}

func sleep(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Injected returns how many occurrences of site fired a rule.
func (i *Injector) Injected(site Site) int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected[site]
}
