// Package dist provides the seeded random distributions used by the workload
// and trace generators. Every function takes an explicit *rand.Rand so that
// all randomness in a simulation flows from seeds owned by the caller and
// identical seeds reproduce identical runs.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// New returns a deterministic generator for the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Exponential draws from an exponential distribution with the given mean.
// It returns 0 if mean <= 0.
func Exponential(r *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}

// Lognormal draws exp(N(mu, sigma^2)).
func Lognormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// LognormalMean draws a lognormal sample with the given mean and shape
// parameter sigma. The location parameter is derived as
// mu = ln(mean) - sigma^2/2 so that E[X] = mean.
func LognormalMean(r *rand.Rand, mean, sigma float64) float64 {
	d := NewLognormalMean(mean, sigma)
	return d.Draw(r)
}

// LognormalMeanDist is LognormalMean's distribution for one (mean, sigma),
// its location computed once: Draw returns, bit for bit and from the same
// RNG values, what LognormalMean(r, mean, sigma) would.
type LognormalMeanDist struct {
	mu, sigma float64
	zero      bool // mean <= 0: every draw is 0 and consumes nothing
}

// NewLognormalMean returns the lognormal distribution with the given mean and
// shape sigma.
func NewLognormalMean(mean, sigma float64) LognormalMeanDist {
	if mean <= 0 {
		return LognormalMeanDist{zero: true}
	}
	return LognormalMeanDist{mu: math.Log(mean) - sigma*sigma/2, sigma: sigma}
}

// Draw draws one sample.
func (d *LognormalMeanDist) Draw(r *rand.Rand) float64 {
	if d.zero {
		return 0
	}
	return Lognormal(r, d.mu, d.sigma)
}

// Skip consumes the RNG values one Draw would, without the transform.
func (d *LognormalMeanDist) Skip(r *rand.Rand) {
	if !d.zero {
		r.NormFloat64()
	}
}

// BoundedPareto draws from a bounded Pareto distribution on [lo, hi] with
// shape alpha, via inverse-transform sampling.
func BoundedPareto(r *rand.Rand, alpha, lo, hi float64) float64 {
	d := NewBoundedPareto(alpha, lo, hi)
	return d.Draw(r)
}

// BoundedParetoDist is BoundedPareto's distribution for one (alpha, lo, hi),
// the powers of its inverse CDF computed once: Draw returns, bit for bit and
// from the same RNG values, what BoundedPareto(r, alpha, lo, hi) would.
type BoundedParetoDist struct {
	lo, hi float64
	la, ha float64 // lo^alpha, hi^alpha
	exp    float64 // -1/alpha
	fixed  bool    // degenerate arguments: every draw is lo and consumes nothing
}

// NewBoundedPareto returns the bounded Pareto distribution on [lo, hi] with
// shape alpha.
func NewBoundedPareto(alpha, lo, hi float64) BoundedParetoDist {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return BoundedParetoDist{lo: lo, fixed: true}
	}
	return BoundedParetoDist{
		lo: lo, hi: hi,
		la:  math.Pow(lo, alpha),
		ha:  math.Pow(hi, alpha),
		exp: -1 / alpha,
	}
}

// Draw draws one sample.
func (d *BoundedParetoDist) Draw(r *rand.Rand) float64 {
	if d.fixed {
		return d.lo
	}
	u := r.Float64()
	la, ha := d.la, d.ha
	// Inverse CDF of the bounded Pareto.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), d.exp)
	return math.Min(math.Max(x, d.lo), d.hi)
}

// Skip consumes the RNG values one Draw would, without the transform.
func (d *BoundedParetoDist) Skip(r *rand.Rand) {
	if !d.fixed {
		r.Float64()
	}
}

// IntBetween draws a uniform integer in [lo, hi] inclusive.
func IntBetween(r *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}

// PoissonProcess generates arrival times of a Poisson process.
type PoissonProcess struct {
	r    *rand.Rand
	mean float64 // mean inter-arrival time
	now  float64
}

// NewPoissonProcess returns a process whose inter-arrival times are
// exponential with the given mean. It returns an error if mean is not
// positive.
func NewPoissonProcess(r *rand.Rand, meanInterval float64) (*PoissonProcess, error) {
	if meanInterval <= 0 {
		return nil, fmt.Errorf("dist: mean interval must be positive, got %v", meanInterval)
	}
	return &PoissonProcess{r: r, mean: meanInterval}, nil
}

// Next returns the next arrival time. Arrival times are strictly
// non-decreasing.
func (p *PoissonProcess) Next() float64 {
	p.now += Exponential(p.r, p.mean)
	return p.now
}
