package core

import (
	"fmt"

	"pdpasim/internal/sched"
)

// Adaptive wraps PDPA with a load-driven target efficiency — the variant the
// paper sketches in Section 4.1: "Alternatively, it is dynamically set
// depending on the load of the system."
//
// When the queue is empty there is no one to reclaim processors for, so the
// target relaxes toward MinTarget and applications get generous allocations
// (better execution times). As the queue deepens the target climbs toward
// MaxTarget, packing applications onto fewer processors so more jobs run
// (better response times). The adjustment goes through SetParams, so STABLE
// applications re-evaluate against the new threshold — exactly the
// parameter-change path Section 4.2.4 defines.
type Adaptive struct {
	*PDPA
	// MinTarget applies with an empty queue; MaxTarget once the queue
	// reaches QueueHigh waiting jobs. The high-efficiency threshold keeps
	// its margin above the target.
	MinTarget float64
	MaxTarget float64
	QueueHigh int
}

// Reset initializes the adaptive policy to move its target efficiency
// between minTarget and maxTarget as the queue grows to queueHigh, resetting
// the embedded PDPA to base (its TargetEff is overridden immediately). It is
// the policy's only initializer: a new policy is Reset on a zero value, and
// a reused policy recycles the embedded PDPA.
func (a *Adaptive) Reset(base Params, minTarget, maxTarget float64, queueHigh int) error {
	switch {
	case minTarget <= 0 || maxTarget > 1.5 || minTarget > maxTarget:
		return fmt.Errorf("core: adaptive target range [%v, %v] invalid", minTarget, maxTarget)
	case queueHigh < 1:
		return fmt.Errorf("core: queueHigh %d < 1", queueHigh)
	}
	if a.PDPA == nil {
		a.PDPA = new(PDPA)
	}
	if err := a.PDPA.Reset(base); err != nil {
		return err
	}
	a.MinTarget, a.MaxTarget, a.QueueHigh = minTarget, maxTarget, queueHigh
	return nil
}

// Name implements sched.Policy.
func (a *Adaptive) Name() string { return "PDPA-adaptive" }

// targetFor maps the queue depth to a target efficiency.
func (a *Adaptive) targetFor(queued int) float64 {
	if queued >= a.QueueHigh {
		return a.MaxTarget
	}
	if queued <= 0 {
		return a.MinTarget
	}
	frac := float64(queued) / float64(a.QueueHigh)
	return a.MinTarget + frac*(a.MaxTarget-a.MinTarget)
}

// Plan implements sched.Policy: re-derive the target from the current queue
// depth, then delegate. Small drifts are ignored so the parameter epoch (and
// with it every STABLE application's re-evaluation) only advances on real
// load changes.
func (a *Adaptive) Plan(v sched.View) []int {
	want := a.targetFor(v.Queued)
	cur := a.Params()
	if diff := want - cur.TargetEff; diff > 0.05 || diff < -0.05 {
		next := cur
		next.TargetEff = want
		if next.HighEff < want {
			next.HighEff = want
		}
		// Keep the standard margin when the target sits below it.
		if base := DefaultParams(); next.HighEff < base.HighEff {
			next.HighEff = base.HighEff
		}
		// Validation cannot fail here (range-checked in Reset), but a
		// refused update simply keeps the previous target.
		_ = a.SetParams(next)
	}
	return a.PDPA.Plan(v)
}
