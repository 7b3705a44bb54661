// Package memory models the CC-NUMA memory behaviour behind the paper's
// stability argument. The evaluation enables IRIX's automatic page migration
// (_DSM_MIGRATION=ALL_ON) and observes that a stable processor schedule "is
// very important to help the rest of mechanisms of the operating system
// (such as the memory migration) to do their work efficiently"
// (Section 5.1.1).
//
// The model: each application's working set is a distribution of pages over
// NUMA nodes. Threads access memory wherever it lives; accesses to remote
// nodes are slower, so the application's effective speed is scaled by a
// locality factor — the fraction of accesses that hit pages on the nodes the
// application is currently running on, discounted by the remote-access
// penalty. A page-migration daemon continuously moves pages toward the nodes
// the application runs on, at a bounded rate. A stable schedule therefore
// converges to locality 1; every reallocation or migration restarts part of
// the convergence — the emergent cost of instability.
package memory

import (
	"fmt"

	"pdpasim/internal/sim"
)

// Model tracks page placement for a set of jobs on a NUMA machine.
type Model struct {
	nodes int
	// remotePenalty is the relative cost of a remote access (>= 1): a job
	// with all pages remote runs at 1/remotePenalty speed.
	remotePenalty float64
	// migrationRate is the fraction of a job's misplaced pages the daemon
	// moves per second (0..1].
	migrationRate float64

	jobs map[int]*jobPages
}

type jobPages struct {
	// placement[n] is the fraction of the job's pages on node n; sums to 1.
	placement []float64
	lastTime  sim.Time
}

// New returns a memory model for a machine with nodes NUMA nodes.
// remotePenalty is the slowdown of a fully-remote working set (e.g. 1.5 for
// the Origin 2000's modest NUMA ratio); migrationRate is the per-second
// fraction of misplaced pages the migration daemon moves (e.g. 0.1).
func New(nodes int, remotePenalty, migrationRate float64) (*Model, error) {
	switch {
	case nodes < 1:
		return nil, fmt.Errorf("memory: need at least one node")
	case remotePenalty < 1:
		return nil, fmt.Errorf("memory: remote penalty %v < 1", remotePenalty)
	case migrationRate <= 0 || migrationRate > 1:
		return nil, fmt.Errorf("memory: migration rate %v out of (0, 1]", migrationRate)
	}
	return &Model{
		nodes:         nodes,
		remotePenalty: remotePenalty,
		migrationRate: migrationRate,
		jobs:          map[int]*jobPages{},
	}, nil
}

// JobStarted places a new job's working set uniformly over the nodes it
// first runs on (first-touch allocation). nodeShare[n] is the fraction of
// the job's processors on node n and must sum to ~1.
func (m *Model) JobStarted(t sim.Time, job int, nodeShare []float64) {
	p := &jobPages{placement: make([]float64, m.nodes), lastTime: t}
	copy(p.placement, m.normalized(nodeShare))
	m.jobs[job] = p
}

// JobFinished drops the job's pages.
func (m *Model) JobFinished(job int) { delete(m.jobs, job) }

func (m *Model) normalized(share []float64) []float64 {
	out := make([]float64, m.nodes)
	total := 0.0
	for n := 0; n < m.nodes && n < len(share); n++ {
		if share[n] > 0 {
			out[n] = share[n]
			total += share[n]
		}
	}
	if total <= 0 {
		// No processors yet: pages on node 0 (the allocating node).
		out[0] = 1
		return out
	}
	for n := range out {
		out[n] /= total
	}
	return out
}

// Advance migrates the job's pages toward its current processor placement
// (nodeShare) for the interval ending at t, then returns the locality
// factor in (0, 1]: the speed multiplier memory placement imposes.
//
// Migration follows an exponential approach: each second, migrationRate of
// the gap between the current and the ideal placement closes.
func (m *Model) Advance(t sim.Time, job int, nodeShare []float64) float64 {
	p, ok := m.jobs[job]
	if !ok {
		return 1
	}
	ideal := m.normalized(nodeShare)
	dt := (t - p.lastTime).Seconds()
	if dt > 0 {
		// Exponential decay of the misplacement: factor = (1-rate)^dt.
		remain := pow1m(m.migrationRate, dt)
		for n := range p.placement {
			p.placement[n] = ideal[n] + (p.placement[n]-ideal[n])*remain
		}
		p.lastTime = t
	}
	return m.locality(p, ideal)
}

// locality computes the speed multiplier: the fraction of accesses that are
// local runs at full speed, the remote fraction at 1/remotePenalty.
func (m *Model) locality(p *jobPages, ideal []float64) float64 {
	local := 0.0
	for n := range p.placement {
		// Accesses from node n's processors hit local pages with
		// probability placement[n]; weight by the processor share.
		if ideal[n] > 0 {
			f := p.placement[n]
			if f > ideal[n] {
				// Pages beyond the node's access share don't help further.
				f = ideal[n]
			}
			local += f
		}
	}
	if local > 1 {
		local = 1
	}
	return local + (1-local)/m.remotePenalty
}

// pow1m computes (1-rate)^dt without math.Pow edge cases for rate = 1.
func pow1m(rate, dt float64) float64 {
	if rate >= 1 {
		return 0
	}
	// (1-rate)^dt = e^(dt·ln(1-rate)); for the small rates used here the
	// direct form is stable.
	out := 1.0
	base := 1 - rate
	for dt >= 1 {
		out *= base
		dt--
	}
	if dt > 0 {
		// Linear interpolation for the fractional second — close enough for
		// a daemon model and avoids importing math for Pow.
		out *= 1 - rate*dt
	}
	return out
}
