package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Float64(), b.Float64(); got != want {
			t.Fatalf("draw %d: generators diverged: %v != %v", i, got, want)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Exponential(r, 50)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Errorf("exponential mean = %v, want ~50", mean)
	}
}

func TestExponentialNonPositiveMean(t *testing.T) {
	r := New(1)
	if got := Exponential(r, 0); got != 0 {
		t.Errorf("Exponential(r, 0) = %v, want 0", got)
	}
	if got := Exponential(r, -3); got != 0 {
		t.Errorf("Exponential(r, -3) = %v, want 0", got)
	}
}

func TestLognormalMeanMatches(t *testing.T) {
	r := New(9)
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		sum += LognormalMean(r, 20, 1.0)
	}
	mean := sum / n
	if math.Abs(mean-20) > 0.5 {
		t.Errorf("lognormal mean = %v, want ~20", mean)
	}
}

func TestLognormalMeanNonPositive(t *testing.T) {
	r := New(1)
	if got := LognormalMean(r, 0, 1); got != 0 {
		t.Errorf("LognormalMean(r, 0, 1) = %v, want 0", got)
	}
}

func TestLognormalPositive(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if v := Lognormal(r, 0, 2); v <= 0 {
			t.Fatalf("lognormal draw %d not positive: %v", i, v)
		}
	}
}

func TestBoundedParetoWithinBounds(t *testing.T) {
	r := New(5)
	const lo, hi = 1.0, 1000.0
	for i := 0; i < 10000; i++ {
		v := BoundedPareto(r, 1.1, lo, hi)
		if v < lo || v > hi {
			t.Fatalf("draw %d out of bounds: %v", i, v)
		}
	}
}

func TestBoundedParetoDegenerateArgs(t *testing.T) {
	r := New(5)
	if got := BoundedPareto(r, 1.1, 0, 10); got != 0 {
		t.Errorf("lo=0: got %v, want 0", got)
	}
	if got := BoundedPareto(r, 1.1, 5, 5); got != 5 {
		t.Errorf("hi==lo: got %v, want 5", got)
	}
	if got := BoundedPareto(r, 0, 5, 10); got != 5 {
		t.Errorf("alpha=0: got %v, want 5", got)
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	// With alpha ~ 1.1 the max of many draws should be far above the median.
	r := New(11)
	var values []float64
	for i := 0; i < 20000; i++ {
		values = append(values, BoundedPareto(r, 1.1, 1, 5000))
	}
	var max, sum float64
	for _, v := range values {
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(values))
	if max < 20*mean {
		t.Errorf("max %v not heavy-tailed relative to mean %v", max, mean)
	}
}

func TestIntBetween(t *testing.T) {
	r := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := IntBetween(r, 1, 5)
		if v < 1 || v > 5 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
		seen[v] = true
	}
	for want := 1; want <= 5; want++ {
		if !seen[want] {
			t.Errorf("value %d never drawn in 1000 tries", want)
		}
	}
	if got := IntBetween(r, 4, 4); got != 4 {
		t.Errorf("IntBetween(4,4) = %d, want 4", got)
	}
	if got := IntBetween(r, 7, 3); got != 7 {
		t.Errorf("IntBetween(7,3) = %d, want lo", got)
	}
}

func TestPoissonProcessMonotonic(t *testing.T) {
	p, err := NewPoissonProcess(New(17), 80)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := 0; i < 1000; i++ {
		next := p.Next()
		if next < prev {
			t.Fatalf("arrival %d went backwards: %v < %v", i, next, prev)
		}
		prev = next
	}
}

func TestPoissonProcessMeanInterval(t *testing.T) {
	p, err := NewPoissonProcess(New(19), 50)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	var last float64
	for i := 0; i < n; i++ {
		last = p.Next()
	}
	mean := last / n
	if math.Abs(mean-50) > 1 {
		t.Errorf("mean interval = %v, want ~50", mean)
	}
}

func TestPoissonProcessRejectsBadMean(t *testing.T) {
	if _, err := NewPoissonProcess(New(1), 0); err == nil {
		t.Error("expected error for zero mean interval")
	}
	if _, err := NewPoissonProcess(New(1), -1); err == nil {
		t.Error("expected error for negative mean interval")
	}
}

func TestBoundedParetoBoundsProperty(t *testing.T) {
	r := New(23)
	f := func(seedDelta uint8) bool {
		lo := 1 + float64(seedDelta%10)
		hi := lo + 100
		v := BoundedPareto(r, 1.3, lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHoistedDrawsMatchLiteral: the distributions that compute their
// constants once draw, bit for bit and from the same RNG values, what the
// per-draw formulas do, and Skip leaves the RNG where Draw does. The oracles
// are the formulas written out in full.
func TestHoistedDrawsMatchLiteral(t *testing.T) {
	literalLognormal := func(r *rand.Rand, mean, sigma float64) float64 {
		if mean <= 0 {
			return 0
		}
		mu := math.Log(mean) - sigma*sigma/2
		return math.Exp(mu + sigma*r.NormFloat64())
	}
	literalPareto := func(r *rand.Rand, alpha, lo, hi float64) float64 {
		if lo <= 0 || hi <= lo || alpha <= 0 {
			return lo
		}
		u := r.Float64()
		la := math.Pow(lo, alpha)
		ha := math.Pow(hi, alpha)
		x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
		return math.Min(math.Max(x, lo), hi)
	}
	for _, c := range []struct{ mean, sigma float64 }{{10, 2}, {20, 0.4}, {0.3, 0}, {1e6, 3}, {0, 1}, {-1, 1}} {
		d := NewLognormalMean(c.mean, c.sigma)
		want, got, skipped := New(5), New(5), New(5)
		for i := 0; i < 2000; i++ {
			w := literalLognormal(want, c.mean, c.sigma)
			if g := d.Draw(got); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("lognormal %+v draw %d: %v, literal %v", c, i, g, w)
			}
			if g := LognormalMean(got, c.mean, c.sigma); math.Float64bits(g) != math.Float64bits(literalLognormal(want, c.mean, c.sigma)) {
				t.Fatalf("LognormalMean %+v draw %d differs from the literal", c, i)
			}
			d.Skip(skipped)
			d.Skip(skipped)
		}
		if a, b := want.Int63(), skipped.Int63(); a != b {
			t.Errorf("lognormal %+v: Skip left the RNG elsewhere than Draw", c)
		}
	}
	for _, c := range []struct{ alpha, lo, hi float64 }{{1.1, 20, 1e4}, {1.3, 1, 1e4}, {0.5, 1e-3, 1e9}, {2, 5, 5}, {1, 0, 10}, {0, 1, 10}} {
		d := NewBoundedPareto(c.alpha, c.lo, c.hi)
		want, got, skipped := New(7), New(7), New(7)
		for i := 0; i < 2000; i++ {
			w := literalPareto(want, c.alpha, c.lo, c.hi)
			if g := d.Draw(got); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("pareto %+v draw %d: %v, literal %v", c, i, g, w)
			}
			if g := BoundedPareto(got, c.alpha, c.lo, c.hi); math.Float64bits(g) != math.Float64bits(literalPareto(want, c.alpha, c.lo, c.hi)) {
				t.Fatalf("BoundedPareto %+v draw %d differs from the literal", c, i)
			}
			d.Skip(skipped)
			d.Skip(skipped)
		}
		if a, b := want.Int63(), skipped.Int63(); a != b {
			t.Errorf("pareto %+v: Skip left the RNG elsewhere than Draw", c)
		}
	}
}
