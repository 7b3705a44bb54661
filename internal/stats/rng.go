// Package stats provides the deterministic random-number streams and the
// summary statistics used across the simulator.
//
// All randomness in a simulation run flows from a single 64-bit seed through
// named streams (see NewRNG and RNG.Stream), so that two runs with the same
// seed — or the same workload replayed under two scheduling policies — see
// byte-identical random sequences. This is the repeatability property the
// paper obtains with workload trace files.
package stats

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. It wraps math/rand with the
// distributions the simulator needs (exponential interarrivals, log-normal
// measurement noise) and supports deriving independent named substreams.
type RNG struct {
	seed int64
	src  *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, src: rand.New(rand.NewSource(seed))}
}

// InitRNG (re)seeds r in place. A reseeded stream produces exactly the draws
// a freshly constructed NewRNG(seed) would — rand.Rand.Seed reinitializes the
// underlying source to its post-construction state — so callers can recycle
// the ~5 KB source allocation across simulation runs without perturbing any
// byte of output.
func InitRNG(r *RNG, seed int64) {
	r.seed = seed
	if r.src == nil {
		r.src = rand.New(rand.NewSource(seed))
		return
	}
	r.src.Seed(seed)
}

// Stream derives an independent substream identified by name. The substream
// seed depends only on the parent seed and the name, never on how much of the
// parent stream has been consumed, so adding a consumer does not perturb the
// draws seen by existing consumers.
func (r *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	derived := int64(h.Sum64() ^ (uint64(r.seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019))
	return NewRNG(derived)
}

// StreamInto is Stream writing into an existing RNG: dst is reseeded to the
// identical derived seed without allocating a new source. dst and r may not
// alias.
func (r *RNG) StreamInto(dst *RNG, name string) {
	InitRNG(dst, r.deriveSeed(fnvString(name)))
}

// StreamIntoBytes is StreamInto for a caller-built byte name, avoiding the
// string conversion on hot paths that rebuild the name per run.
func (r *RNG) StreamIntoBytes(dst *RNG, name []byte) {
	InitRNG(dst, r.deriveSeed(fnvBytes(name)))
}

func (r *RNG) deriveSeed(h uint64) int64 {
	return int64(h ^ (uint64(r.seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019))
}

// fnvString/fnvBytes inline hash/fnv's 64a so substream derivation does not
// allocate a hasher. The constants and update order match hash/fnv exactly —
// Stream and StreamInto must derive identical seeds for the same name.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(name string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return h
}

func fnvBytes(name []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range name {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Exp returns an exponential draw with the given mean. The mean must be
// positive.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp requires positive mean")
	}
	return r.src.ExpFloat64() * mean
}

// LogNormalFactor returns a multiplicative noise factor with median 1 whose
// log has standard deviation sigma. Used for measurement noise: multiplying
// a duration by the factor keeps it positive regardless of sigma.
func (r *RNG) LogNormalFactor(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(r.src.NormFloat64() * sigma)
}
