// Package runqueue turns the one-shot simulator into a servable unit of
// work: a bounded worker pool whose admission controller dogfoods PDPA's
// coordinated multiprogramming-level rule (admit below a base concurrency
// unconditionally; above it, only when a slot is free and every in-flight
// run is past warm-up), a canonical-config-hash index with singleflight
// deduplication so identical specs never simulate twice, a FIFO queue with
// per-run deadlines, and graceful drain for shutdown.
//
// Sweeps live here for every backend: SweepIndex (sweep.go) expands a grid,
// allocates sweep IDs, journals and recovers sweeps, and serves their views
// for the pool and the fleet coordinator alike; each backend supplies only
// batch admission, member states, and member cancel as SweepHooks. So does
// run bookkeeping: a Ledger (ledger.go) holds each backend's run IDs, the
// spec-key index, the bounded history of finished runs (least recently
// used forgotten first), the run journal with its compaction and the
// delete records erasing forgotten runs, and recovery; a backend supplies
// its record's encoding as hooks. The history is the result cache of both
// backends: the ledger alone decides which run answers a spec key (a
// pending one, or a done one it still holds), live and after recovery.
//
// The admission rule is the paper's Section 4.3 insight applied to the
// service itself: starting new work while the running set is still settling
// (here: warming up, hot caches being built, memory being touched) degrades
// everyone; once the running set is stable, free capacity may be handed out.
package runqueue

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// WorkloadSpec is what workload to generate: the v1 wire type itself, so a
// request body converts to a spec without copying. Field semantics and
// defaults match pdpasim.WorkloadSpec (load 1.0, 60 CPUs, 300 s window).
type WorkloadSpec = client.Workload

// RunOptions is how to schedule the workload: the v1 wire type itself.
// PDPA parameters left zero take the paper's defaults.
type RunOptions = client.RunOptions

// Spec is one unit of servable work: a workload plus scheduling options. It
// is the wire spec (client.Spec) with the simulator methods attached, so
// converting between the two is a cast.
type Spec client.Spec

// isPDPA reports whether the options select a PDPA regime (whose parameters
// therefore matter for identity).
func isPDPA(o RunOptions) bool {
	p := pdpasim.Policy(o.Policy)
	return p == pdpasim.PDPA || p == pdpasim.AdaptivePDPA
}

// Facade translates the wire spec into the facade types the simulator
// accepts. Zero PDPA fields inherit the paper's defaults individually, so a
// request may override just target_eff.
func (s Spec) Facade() (pdpasim.WorkloadSpec, pdpasim.Options) {
	ws := pdpasim.WorkloadSpec{
		Mix:            s.Workload.Mix,
		Load:           s.Workload.Load,
		NCPU:           s.Workload.NCPU,
		Window:         time.Duration(s.Workload.WindowS * float64(time.Second)),
		Seed:           s.Workload.Seed,
		UniformRequest: s.Workload.UniformRequest,
	}
	opts := pdpasim.Options{
		Policy:       pdpasim.Policy(s.Options.Policy),
		FixedMPL:     s.Options.FixedMPL,
		NoiseSigma:   s.Options.NoiseSigma,
		Seed:         s.Options.Seed,
		NUMANodeSize: s.Options.NUMANodeSize,
	}
	if isPDPA(s.Options) {
		p := pdpasim.DefaultPDPAParams()
		if s.Options.TargetEff != 0 {
			p.TargetEff = s.Options.TargetEff
		}
		if s.Options.HighEff != 0 {
			p.HighEff = s.Options.HighEff
		}
		if s.Options.Step != 0 {
			p.Step = s.Options.Step
		}
		if s.Options.BaseMPL != 0 {
			p.BaseMPL = s.Options.BaseMPL
		}
		if s.Options.MaxStableTransitions != 0 {
			p.MaxStableTransitions = s.Options.MaxStableTransitions
		}
		opts.PDPA = p
	}
	return ws, opts
}

// Validate checks the spec through the same validation path cmd/pdpasim
// uses: the facade types' Validate methods.
func (s Spec) Validate() error {
	if s.Workload.WindowS < 0 {
		return fmt.Errorf("runqueue: negative window_s %v", s.Workload.WindowS)
	}
	ws, opts := s.Facade()
	if err := ws.Validate(); err != nil {
		return err
	}
	return opts.Validate()
}

// canonical returns the spec with every default made explicit and every
// field that cannot affect the result zeroed, so that equivalent requests —
// however they spell their defaults — hash identically.
func (s Spec) canonical() Spec {
	c := s
	if c.Workload.Load == 0 {
		c.Workload.Load = workload.DefaultLoad
	}
	if c.Workload.NCPU == 0 {
		c.Workload.NCPU = workload.DefaultNCPU
	}
	if c.Workload.WindowS == 0 {
		c.Workload.WindowS = workload.DefaultWindow.Seconds()
	}
	if c.Options.NoiseSigma == 0 {
		c.Options.NoiseSigma = system.DefaultNoise
	}
	if c.Options.NoiseSigma < 0 {
		c.Options.NoiseSigma = -1
	}
	if c.Options.NUMANodeSize == 1 {
		c.Options.NUMANodeSize = 0
	}
	if isPDPA(c.Options) {
		// PDPA ignores the fixed level: its own admission governs.
		c.Options.FixedMPL = 0
		p := pdpasim.DefaultPDPAParams()
		if c.Options.TargetEff == 0 {
			c.Options.TargetEff = p.TargetEff
		}
		if c.Options.HighEff == 0 {
			c.Options.HighEff = p.HighEff
		}
		if c.Options.Step == 0 {
			c.Options.Step = p.Step
		}
		if c.Options.BaseMPL == 0 {
			c.Options.BaseMPL = p.BaseMPL
		}
		if c.Options.MaxStableTransitions == 0 {
			c.Options.MaxStableTransitions = p.MaxStableTransitions
		}
	} else {
		// Non-PDPA regimes never read the PDPA parameters.
		c.Options.TargetEff = 0
		c.Options.HighEff = 0
		c.Options.Step = 0
		c.Options.BaseMPL = 0
		c.Options.MaxStableTransitions = 0
		if c.Options.FixedMPL == 0 {
			c.Options.FixedMPL = system.DefaultMPL
		}
	}
	return c
}

// Key returns the canonical-config hash that identifies this spec in the
// result cache: sha256 over the canonicalized spec's JSON. Two specs with
// the same key are guaranteed (by the determinism regression tests) to
// produce byte-identical results, which is what makes cached outcomes
// substitutable for fresh simulations.
func (s Spec) Key() string {
	b, err := json.Marshal(s.canonical())
	if err != nil {
		// Spec is a plain value struct; Marshal cannot fail.
		panic("runqueue: marshal spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
