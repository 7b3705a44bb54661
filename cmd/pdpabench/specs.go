package main

import (
	"time"

	"pdpasim"
	"pdpasim/client"
	"pdpasim/internal/runqueue"
	"pdpasim/internal/sim"
	"pdpasim/internal/system"
	"pdpasim/internal/workload"
)

// The grid every workload draws its specs from: the paper's four regimes ×
// four mixes × three loads, numbered in the sweep engine's cell order
// (mixes → loads → policies).
var (
	gridPolicies = []pdpasim.Policy{pdpasim.IRIX, pdpasim.Equipartition, pdpasim.EqualEfficiency, pdpasim.PDPA}
	gridMixes    = []string{"w1", "w2", "w3", "w4"}
	gridLoads    = []float64{0.6, 0.8, 1.0}
)

const gridCells = 48

// Seed streams: each kind of input draws from its own stream, so no two
// workloads (or set-up and window) share a spec.
const (
	streamFresh uint64 = iota + 1
	streamHot
	streamPick
	streamSweep
	streamWarm
	streamFollow
	streamRepeat
	streamRepeatOf
	streamMixed
)

// derive maps (seed, stream, i) through splitmix64 to a positive spec seed:
// every input is a pure function of -seed.
func derive(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03 ^ i
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// runSpec is one simulation the benchmark asks for. The same value becomes
// a v1 request, a facade call (the oracle), a pool cache key, and a
// system.Config (the serial pass).
type runSpec struct {
	policy  pdpasim.Policy
	mix     string
	load    float64
	windowS float64
	seed    int64
}

// cellSpec is grid cell c with the given submission window and seed; the
// seed drives both the arrivals and the measurement noise, as in Sweep.
func cellSpec(c int, windowS float64, seed int64) runSpec {
	c %= gridCells
	return runSpec{
		policy:  gridPolicies[c%4],
		mix:     gridMixes[c/12],
		load:    gridLoads[(c/4)%3],
		windowS: windowS,
		seed:    seed,
	}
}

// freshSpec is op i of serve-fresh and fleet-fresh: grid cell i mod 48 with
// a 60 s window and a seed no other op uses, so every op misses the cache.
func freshSpec(seed int64, i int) runSpec {
	return cellSpec(i, 60, derive(seed, streamFresh, uint64(i)))
}

// mixedSpec is serve-mixed's new spec for op i: grid cell i mod 48 with a
// 600 s window. A run then simulates for tens of milliseconds, long enough
// that eight clients at times keep more runs in flight than the pool's base
// of 4, and runs wait in its queue for admission.
func mixedSpec(seed int64, i int) runSpec {
	return cellSpec(i, 600, derive(seed, streamMixed, uint64(i)))
}

// hotSpec is member h of serve-cached's hot set: the paper's 300 s window,
// whose results are ~13 KB.
func hotSpec(seed int64, h int) runSpec {
	return cellSpec(h, 300, derive(seed, streamHot, uint64(h)))
}

// sweepSpec is the grid cell c of paper-sweep batch seed.
func sweepSpec(c int, seed int64) runSpec { return cellSpec(c, 300, seed) }

func (s runSpec) request() client.SubmitRunRequest {
	return client.SubmitRunRequest{
		Workload: client.Workload{Mix: s.mix, Load: s.load, WindowS: s.windowS, Seed: s.seed},
		Options:  client.RunOptions{Policy: string(s.policy), Seed: s.seed},
	}
}

func (s runSpec) facade() (pdpasim.WorkloadSpec, pdpasim.Options) {
	return pdpasim.WorkloadSpec{
			Mix: s.mix, Load: s.load, Seed: s.seed,
			Window: time.Duration(s.windowS * float64(time.Second)),
		},
		pdpasim.Options{Policy: s.policy, Seed: s.seed}
}

// key is the pool's cache key for the spec; a traced run uses it to tie
// pool runs and simulations back to ops.
func (s runSpec) key() string {
	return runqueue.Spec{
		Workload: runqueue.WorkloadSpec{Mix: s.mix, Load: s.load, WindowS: s.windowS, Seed: s.seed},
		Options:  runqueue.RunOptions{Policy: string(s.policy), Seed: s.seed},
	}.Key()
}

// genConfig and systemConfig are the serial pass's view of the spec: the
// configuration pdpasim.Sweep and the facade build for it.
func (s runSpec) genConfig() (workload.GenConfig, error) {
	mix, err := workload.MixByName(s.mix)
	return workload.GenConfig{
		Mix: mix, Load: s.load, NCPU: 60, Window: sim.FromSeconds(s.windowS), Seed: s.seed,
	}, err
}

func (s runSpec) systemConfig(w *workload.Workload) system.Config {
	return system.Config{Workload: w, Policy: system.PolicyKind(s.policy), Seed: s.seed}
}
