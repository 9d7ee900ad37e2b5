package obs

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistogramBucketBounds checks the bucket geometry: bounds are
// monotonically increasing, every positive finite value lands in the bucket
// whose (lo, hi] range contains it, and the relative bucket width stays
// within the advertised 12.5%.
func TestHistogramBucketBounds(t *testing.T) {
	prev := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo >= hi {
			t.Fatalf("bucket %d: lo %g >= hi %g", i, lo, hi)
		}
		if lo < prev {
			t.Fatalf("bucket %d: lo %g < previous hi %g", i, lo, prev)
		}
		prev = hi
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10000; n++ {
		v := math.Ldexp(0.5+rng.Float64()/2, rng.Intn(100)-50)
		i := bucketIndex(v)
		lo, hi := BucketBounds(i)
		if !(v > lo && v <= hi) && v != lo {
			// v == lo can occur when Frexp's frac is exactly a sub-bucket
			// edge; the half-open convention then differs by one bucket,
			// which the ≤12.5% width bound makes immaterial. Anything else
			// is a placement bug.
			t.Fatalf("v=%g landed in bucket %d (%g, %g]", v, i, lo, hi)
		}
		if (hi-lo)/lo > 0.125+1e-12 {
			t.Fatalf("bucket %d relative width %g > 12.5%%", i, (hi-lo)/lo)
		}
	}
}

// TestHistogramQuantile checks quantile estimates against exact order
// statistics within the bucket width bound.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := rng.ExpFloat64() * 100
		values = append(values, v)
		h.Observe(v)
	}
	if h.Count() != 5000 {
		t.Fatalf("Count = %d", h.Count())
	}
	exact := append([]float64(nil), values...)
	sortFloats(exact)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		got := h.Quantile(q)
		want := exact[int(q*float64(len(exact)-1))]
		if rel := math.Abs(got-want) / want; rel > 0.13 {
			t.Fatalf("q=%g: histogram %g vs exact %g (rel err %.3f)", q, got, want, rel)
		}
	}
	if h.Quantile(0) < h.min || h.Quantile(1) > h.max {
		t.Fatalf("quantiles escape [min, max]: q0=%g min=%g q1=%g max=%g",
			h.Quantile(0), h.min, h.Quantile(1), h.max)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TestHistogramMergeProperties is the merge-contract property test: over
// seeded random shard splits, Merge is associative and commutative on the
// integer state (bucket counts, Count, Min, Max, out-of-range), and with
// exactly-representable values even Sum survives any association.
func TestHistogramMergeProperties(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Dyadic values (k/8 for small k) add exactly in float64, so Sum
		// equality is testable alongside the integer state.
		parts := make([]*Histogram, 4)
		var direct Histogram
		for i := range parts {
			parts[i] = &Histogram{}
			for n := 0; n < 500+rng.Intn(500); n++ {
				v := float64(rng.Intn(1<<16)) / 8
				parts[i].Observe(v)
				direct.Observe(v)
			}
		}
		// (((a+b)+c)+d)
		var left Histogram
		for _, p := range parts {
			left.Merge(p)
		}
		// ((a+b)+(c+d))
		var ab, cd, tree Histogram
		ab.Merge(parts[0])
		ab.Merge(parts[1])
		cd.Merge(parts[2])
		cd.Merge(parts[3])
		tree.Merge(&ab)
		tree.Merge(&cd)
		// reversed order (commutativity)
		var rev Histogram
		for i := len(parts) - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		for name, m := range map[string]*Histogram{"left-fold": &left, "tree": &tree, "reversed": &rev} {
			if !m.BucketsEqual(&direct) {
				t.Fatalf("seed %d: %s merge differs from direct observation bucket-for-bucket", seed, name)
			}
			if m.Sum() != direct.Sum() {
				t.Fatalf("seed %d: %s merge Sum %g != direct %g on dyadic values", seed, name, m.Sum(), direct.Sum())
			}
		}
	}
}

// TestHistogramOutOfRange pins the contract for values the log buckets
// cannot place: zeros and negatives count, rank below every bucket, and
// survive merging.
func TestHistogramOutOfRange(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-3)
	h.Observe(1)
	if h.Count() != 3 || h.outOfRange != 2 {
		t.Fatalf("count=%d outOfRange=%d, want 3, 2", h.Count(), h.outOfRange)
	}
	if h.min != -3 || h.max != 1 {
		t.Fatalf("min=%g max=%g", h.min, h.max)
	}
	if q := h.Quantile(0.5); q != -3 {
		t.Fatalf("median with majority out-of-range = %g, want min (-3)", q)
	}
	var m Histogram
	m.Merge(&h)
	if !m.BucketsEqual(&h) {
		t.Fatal("merge dropped out-of-range state")
	}
}

// TestHistogramsSinkEvents checks the Probe wiring: JobDone feeds response,
// JobAdmitted feeds admission wait, TaskDone feeds duration (now - start),
// and the side-channel observers feed slowdown and round latency.
func TestHistogramsSinkEvents(t *testing.T) {
	h := NewHistograms()
	h.JobDone(10, 1, 7.5)
	h.JobAdmitted(3, 1, 0.25)
	h.TaskDone(9, 1, 0, 0, 4, false)
	h.ObserveSlowdown(3)
	h.ObserveRoundLatency(1e-6)
	for name, want := range map[string]float64{
		HistResponse:      7.5,
		HistAdmissionWait: 0.25,
		HistTaskDuration:  5,
		HistSlowdown:      3,
		HistRoundLatency:  1e-6,
	} {
		g, ok := h.Histogram(name)
		if !ok || g.Count() != 1 || g.Sum() != want {
			t.Fatalf("%s: ok=%t count=%d sum=%g, want one observation of %g", name, ok, g.Count(), g.Sum(), want)
		}
	}
	if _, ok := h.Histogram("nope"); ok {
		t.Fatal("unknown histogram name reported ok")
	}
}

// TestHistogramsShardMerge checks the ShardSink plumbing directly: events
// sent to shard probes land in both the global and per-shard histograms,
// and MergeShards reproduces the global state bucket-for-bucket.
func TestHistogramsShardMerge(t *testing.T) {
	h := NewHistograms()
	rng := rand.New(rand.NewSource(11))
	for shard := 0; shard < 3; shard++ {
		p := ForShard(Probe(h), shard)
		for n := 0; n < 200; n++ {
			p.JobDone(1, n, rng.ExpFloat64()*50)
		}
	}
	if got := h.ShardIndexes(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("ShardIndexes = %v, want [0 1 2]", got)
	}
	global, _ := h.Histogram(HistResponse)
	merged := h.MergeShards(HistResponse)
	if !merged.BucketsEqual(&global) {
		t.Fatal("shard-merged response histogram differs from the global sink bucket-for-bucket")
	}
	if global.Count() != 600 {
		t.Fatalf("global count = %d, want 600", global.Count())
	}
}

// TestFindHistograms checks Find's sink resolution through nested Multi
// fan-ins.
func TestFindHistograms(t *testing.T) {
	h := NewHistograms()
	if _, ok := Find[*Histograms](nil); ok {
		t.Fatal("nil probe resolved a sink")
	}
	if got, _ := Find[*Histograms](h); got != h {
		t.Fatal("direct resolution failed")
	}
	if _, ok := Find[*Histograms](Nop{}); ok {
		t.Fatal("a plain probe resolved a sink")
	}
	p := Multi(NewCounters(), Multi(NewRing(16), h))
	if got, _ := Find[*Histograms](p); got != h {
		t.Fatal("nested Multi resolution failed")
	}
	if _, ok := Find[*Counters](p); !ok {
		t.Fatal("Find[*Counters] broken by the added members")
	}
}

// TestZeroAllocHistogramObserve is part of the probe-gate: the Histograms
// record path (probe events, raw Observe, and both side-channel observers)
// must not allocate.
func TestZeroAllocHistogramObserve(t *testing.T) {
	h := NewHistograms()
	var raw Histogram
	if avg := testing.AllocsPerRun(1000, func() {
		raw.Observe(3.7)
		h.JobDone(10, 1, 7.5)
		h.JobAdmitted(3, 1, 0.25)
		h.TaskDone(9, 1, 0, 0, 4, false)
		h.ObserveSlowdown(3)
		h.ObserveRoundLatency(1e-6)
	}); avg != 0 {
		t.Fatalf("histogram record path allocates %.1f allocs/op, want 0", avg)
	}
}
