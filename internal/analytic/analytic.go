// Package analytic provides closed-form and numeric queueing-theory response
// times used to cross-check the simulators against theory. The closed forms
// are the classical M/M/1 results; the numeric evaluator computes M/G/1 mean
// response times for FCFS (Pollaczek–Khinchine), PS, SRPT (Schrage–Miller)
// and LAS/FB (Coffman–Muntz / Kleinrock) from a dist.Service tail by grid
// integration. The crosscheck test family (and the `make crosscheck` gate)
// drives the fluid and engine substrates with matching M/M/1 workloads and
// asserts the simulated means converge to these values — the contract that
// lets the theory-grounded baselines (PS, SRPT, Gittins) be trusted as
// reference points. DESIGN.md documents the formulas and tolerance model.
package analytic

import (
	"fmt"
	"math"
	"sort"

	"lasmq/internal/dist"
)

// MM1FCFS returns the M/M/1 FCFS mean response time 1/(mu-lambda). In an
// M/M/1 queue FCFS, PS and LAS all share this mean (exponential service is
// the boundary of the decreasing-hazard class), which is what makes the
// triple such a sharp cross-check: three different scheduling dynamics must
// land on the same number.
func MM1FCFS(lambda, mu float64) float64 { return 1 / (mu - lambda) }

// MM1PS returns the M/M/1 PS mean response time, equal to FCFS's.
func MM1PS(lambda, mu float64) float64 { return MM1FCFS(lambda, mu) }

// MM1LAS returns the M/M/1 LAS mean response time, equal to FCFS's: the
// exponential's constant hazard rate makes every non-anticipating
// non-idling policy mean-equivalent.
func MM1LAS(lambda, mu float64) float64 { return MM1FCFS(lambda, mu) }

// MM1SRPT returns the M/M/1 SRPT mean response time. SRPT has no elementary
// closed form even for exponential service; this evaluates the
// Schrage–Miller integrals numerically (well below 0.1% error at the
// default resolution).
func MM1SRPT(lambda, mu float64) (float64, error) {
	m, err := NewMG1(lambda, dist.ExpService{M: 1 / mu}, 0)
	if err != nil {
		return 0, err
	}
	return m.SRPT(), nil
}

// mg1Points is the default integration resolution.
const mg1Points = 8192

// MG1 numerically evaluates M/G/1 mean response times for a general service
// distribution by grid integration of its tail. All cumulative integrals are
// precomputed at construction; the per-policy methods are cheap.
type MG1 struct {
	lambda float64
	mean   float64 // E[S], from the Service
	m2     float64 // E[S^2], numeric
	rho    float64

	xs    []float64 // ascending grid over (0, Upper]
	head  float64   // sanitized Tail(0)
	tails []float64 // sanitized monotone Tail at xs
	mass  []float64 // dF mass in (xs[i-1], xs[i]] (head cell starts at 0)
	integ []float64 // I(x)  = Integral_0^x Tail(t) dt            = E[min(S,x)]
	tint  []float64 // J(x)  = Integral_0^x t*Tail(t) dt          = E[min(S,x)^2]/2
	resid []float64 // R(x)  = Integral_0^x dt/(1-rho(t)),  rho(t) = lambda*Integral_0^t u dF(u)
}

// NewMG1 precomputes the evaluator for arrival rate lambda and service
// distribution s at the given grid resolution (0 means the default). It
// fails when the queue is unstable (rho = lambda*E[S] >= 1).
func NewMG1(lambda float64, s dist.Service, points int) (*MG1, error) {
	if points <= 0 {
		points = mg1Points
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("analytic: lambda must be positive, got %v", lambda)
	}
	mean := s.Mean()
	if mean <= 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("analytic: service mean %v out of range", mean)
	}
	rho := lambda * mean
	if rho >= 1 {
		return nil, fmt.Errorf("analytic: unstable queue, rho = %v", rho)
	}

	m := &MG1{lambda: lambda, mean: mean, rho: rho}
	m.xs = mg1Grid(s.Upper(), points)
	n := len(m.xs)
	m.tails = make([]float64, n)
	m.mass = make([]float64, n)
	m.integ = make([]float64, n)
	m.tint = make([]float64, n)
	m.resid = make([]float64, n)

	// Sample and sanitize the tail (clamped, monotone non-increasing).
	prev := math.Min(1, math.Max(0, s.Tail(0)))
	m.head = prev
	for i, x := range m.xs {
		t := s.Tail(x)
		if math.IsNaN(t) || t < 0 {
			t = 0
		}
		if t > prev {
			t = prev
		}
		m.tails[i] = t
		m.mass[i] = prev - t
		prev = t
	}
	// Mass beyond Upper folds into the last cell so masses sum to Tail(0).
	m.mass[n-1] += prev

	// Trapezoid cumulatives. The head cell treats Tail on (0, xs[0]] as the
	// constant Tail(0) (xs[0] is ~1e-9 of Upper, so the choice is washed out).
	x0, t0 := 0.0, m.head
	var integ, tint, resid float64
	for i := 0; i < n; i++ {
		dx := m.xs[i] - x0
		// rho(t) at the segment endpoints, for the residence integrand.
		rhoAt0 := m.lambda * (integ - x0*t0)
		integ += dx * (t0 + m.tails[i]) / 2
		tint += dx * (x0*t0 + m.xs[i]*m.tails[i]) / 2
		rhoAt1 := m.lambda * (integ - m.xs[i]*m.tails[i])
		resid += dx * (1/(1-math.Min(rhoAt0, 1-1e-12)) + 1/(1-math.Min(rhoAt1, 1-1e-12))) / 2
		m.integ[i] = integ
		m.tint[i] = tint
		m.resid[i] = resid
		x0, t0 = m.xs[i], m.tails[i]
	}
	m.m2 = 2 * tint
	return m, nil
}

// mg1Grid is a log-spaced integration grid over (0, upper].
func mg1Grid(upper float64, points int) []float64 {
	if upper <= 0 || math.IsInf(upper, 0) || math.IsNaN(upper) {
		upper = 1
	}
	lo := upper * 1e-9
	ratio := math.Pow(upper/lo, 1/float64(points-1))
	xs := make([]float64, points)
	x := lo
	for i := range xs {
		xs[i] = x
		x *= ratio
	}
	xs[points-1] = upper
	return xs
}

// Rho returns the offered load lambda*E[S].
func (m *MG1) Rho() float64 { return m.rho }

// SecondMoment returns the numeric E[S^2].
func (m *MG1) SecondMoment() float64 { return m.m2 }

// FCFS returns the Pollaczek–Khinchine mean response time
// E[T] = E[S] + lambda*E[S^2] / (2*(1-rho)).
func (m *MG1) FCFS() float64 {
	return m.mean + m.lambda*m.m2/(2*(1-m.rho))
}

// PS returns the processor-sharing mean response time E[S]/(1-rho),
// famously insensitive to the service distribution beyond its mean.
func (m *MG1) PS() float64 { return m.mean / (1 - m.rho) }

// SRPT returns the Schrage–Miller mean response time
//
//	E[T] = Integral E[T(x)] dF(x),
//	E[T(x)] = lambda*J(x)/(1-rho(x))^2 + Integral_0^x dt/(1-rho(t)),
//
// where rho(x) = lambda*Integral_0^x t dF(t) is the load from jobs smaller
// than x and J(x) = Integral_0^x t*Tail(t) dt (integration by parts folds
// the x^2*Tail(x) boundary term of the classical waiting-time numerator
// into J).
func (m *MG1) SRPT() float64 {
	return m.overSizes(func(x float64) float64 {
		rhoX := m.lambda * (m.at(m.integ, x) - x*m.tailAt(x))
		den := 1 - math.Min(rhoX, 1-1e-12)
		return m.lambda*m.at(m.tint, x)/(den*den) + m.at(m.resid, x)
	})
}

// LAS returns the least-attained-service (foreground-background) mean
// response time
//
//	E[T(x)] = lambda*J(x)/(1-rhoTilde(x))^2 + x/(1-rhoTilde(x)),
//
// where rhoTilde(x) = lambda*E[min(S,x)] counts every job's service
// truncated at level x — the work that can preempt a job of size x under
// LAS.
func (m *MG1) LAS() float64 {
	return m.overSizes(func(x float64) float64 {
		den := 1 - math.Min(m.lambda*m.at(m.integ, x), 1-1e-12)
		return m.lambda*m.at(m.tint, x)/(den*den) + x/den
	})
}

// overSizes integrates f (a conditional mean response given size x) over the
// service distribution, evaluating f at each grid cell's midpoint with the
// cell's dF mass.
func (m *MG1) overSizes(f func(x float64) float64) float64 {
	var total float64
	x0 := 0.0
	for i, x1 := range m.xs {
		if w := m.mass[i]; w > 0 {
			total += w * f((x0+x1)/2)
		}
		x0 = x1
	}
	return total
}

// at linearly interpolates the cumulative array c (aligned with m.xs, with
// implied value 0 at x=0) at x.
func (m *MG1) at(c []float64, x float64) float64 {
	if x <= 0 {
		return 0
	}
	n := len(m.xs)
	if x >= m.xs[n-1] {
		return c[n-1]
	}
	i := sort.SearchFloat64s(m.xs, x)
	// m.xs[i-1] < x <= m.xs[i] (i may be 0: interpolate from the origin).
	x0, c0 := 0.0, 0.0
	if i > 0 {
		x0, c0 = m.xs[i-1], c[i-1]
	}
	return c0 + (c[i]-c0)*(x-x0)/(m.xs[i]-x0)
}

// tailAt linearly interpolates the sanitized tail at x.
func (m *MG1) tailAt(x float64) float64 {
	if x <= 0 {
		return m.head
	}
	n := len(m.xs)
	if x >= m.xs[n-1] {
		return m.tails[n-1]
	}
	i := sort.SearchFloat64s(m.xs, x)
	x0, t0 := 0.0, m.head
	if i > 0 {
		x0, t0 = m.xs[i-1], m.tails[i-1]
	}
	return t0 + (m.tails[i]-t0)*(x-x0)/(m.xs[i]-x0)
}
