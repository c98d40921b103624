package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source derives independent, reproducible random streams from a single
// experiment seed. Each named stream (e.g. "machine-7/sessions") gets its
// own generator, so adding a new consumer of randomness never perturbs the
// draws seen by existing ones — essential for comparable experiments.
type Source struct {
	seed int64
}

// NewSource returns a stream factory rooted at the given experiment seed.
func NewSource(seed int64) *Source { return &Source{seed: seed} }

// Stream returns a dedicated generator for the named purpose. The same
// (seed, name) pair always yields the same stream. The returned *rand.Rand
// is not safe for concurrent use; derive one stream per goroutine.
func (s *Source) Stream(name string) *rand.Rand {
	return rand.New(rand.NewSource(s.streamSeed([]byte(name))))
}

// StreamBytes is Stream for a name already held as bytes, sparing callers
// that assemble names incrementally (e.g. with strconv.AppendInt) the
// string conversion. StreamBytes(b) equals Stream(string(b)).
func (s *Source) StreamBytes(name []byte) *rand.Rand {
	return rand.New(rand.NewSource(s.streamSeed(name)))
}

func (s *Source) streamSeed(name []byte) int64 {
	h := fnv.New64a()
	// The seed is mixed through the hash together with the name so distinct
	// seeds decorrelate even for equal names.
	var buf [8]byte
	v := uint64(s.seed)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	h.Write(name)
	return int64(h.Sum64())
}

// Exp draws an exponentially distributed duration with the given mean.
// A non-positive mean yields 0.
func Exp(r *rand.Rand, mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(float64(mean) * r.ExpFloat64())
}

// Uniform draws a duration uniformly from [lo, hi). If hi <= lo it
// returns lo.
func Uniform(r *rand.Rand, lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.Int63n(int64(hi-lo)))
}

// normalMaxResample bounds the rejection loop in Normal. With lo at or
// below the mean at least half the mass is accepted, so 16 attempts leave
// under 2^-16 of draws to the clamp fallback; pathological parameter
// choices (lo far above the mean) degrade to the clamp instead of spinning.
const normalMaxResample = 16

// Normal draws from N(mean, sd) truncated below at lo by rejection
// sampling: draws under lo are redrawn rather than clamped, so the result
// follows the true truncated-normal density. (Clamping piles the whole
// sub-lo tail onto the floor, which biases the mean of draws near lo —
// e.g. a clamped half-normal averages sd/sqrt(2*pi) instead of the correct
// sd*sqrt(2/pi).) After normalMaxResample rejected attempts the draw
// falls back to lo.
func Normal(r *rand.Rand, mean, sd, lo float64) float64 {
	for i := 0; i < normalMaxResample; i++ {
		if v := mean + sd*r.NormFloat64(); v >= lo {
			return v
		}
	}
	return lo
}

// LogNormal draws from a log-normal distribution parameterized by the
// desired median and a shape sigma (sigma of the underlying normal).
func LogNormal(r *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(sigma*r.NormFloat64())
}

// Bernoulli reports true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Poisson draws a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 30 (the
// testbed only ever needs small means, but the guard keeps it safe).
func Poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := math.Round(Normal(r, mean, math.Sqrt(mean), 0))
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
