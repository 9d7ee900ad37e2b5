package core_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/sched"
	"lasmq/internal/trace"
)

func newAdaptive(t *testing.T, mutate func(*core.AdaptiveConfig)) *core.Adaptive {
	t.Helper()
	cfg := core.DefaultAdaptiveConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.NewAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewAdaptiveValidation(t *testing.T) {
	mutations := []func(*core.AdaptiveConfig){
		func(c *core.AdaptiveConfig) { c.WarmupJobs = 0 },
		func(c *core.AdaptiveConfig) { c.RefitEvery = 0 },
		func(c *core.AdaptiveConfig) { c.LowQuantile = 0 },
		func(c *core.AdaptiveConfig) { c.HighQuantile = 1 },
		func(c *core.AdaptiveConfig) { c.LowQuantile = 0.9; c.HighQuantile = 0.5 },
		func(c *core.AdaptiveConfig) { c.MaxHistory = -1 },
		func(c *core.AdaptiveConfig) { c.Queues = 0 },
	}
	for i, mutate := range mutations {
		cfg := core.DefaultAdaptiveConfig()
		mutate(&cfg)
		if _, err := core.NewAdaptive(cfg); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	// NaN fails every comparison, so a check written as "reject if out of
	// range" lets it through, and the first refit indexes the history at
	// MinInt64. The error names the field.
	for field, mutate := range map[string]func(*core.AdaptiveConfig){
		"LowQuantile":  func(c *core.AdaptiveConfig) { c.LowQuantile = math.NaN() },
		"HighQuantile": func(c *core.AdaptiveConfig) { c.HighQuantile = math.NaN() },
	} {
		cfg := core.DefaultAdaptiveConfig()
		mutate(&cfg)
		if _, err := core.NewAdaptive(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("NaN %s: got error %v, want one naming the field", field, err)
		}
	}
}

// TestAdaptiveDefaults: the default configuration names the policy and
// starts one threshold below each of its ten queues.
func TestAdaptiveDefaults(t *testing.T) {
	s := newAdaptive(t, nil)
	if s.Name() != "LAS_MQ_ADAPTIVE" {
		t.Errorf("Name = %q", s.Name())
	}
	if len(s.Thresholds()) != 9 {
		t.Errorf("thresholds = %v, want 9", s.Thresholds())
	}
}

func TestAdaptiveRefitsAfterWarmup(t *testing.T) {
	s := newAdaptive(t, func(c *core.AdaptiveConfig) { c.WarmupJobs = 5; c.RefitEvery = 5 })
	initial := s.Thresholds()

	// Simulate 10 jobs appearing and completing with sizes around 1000.
	for i := 1; i <= 10; i++ {
		j := job(i, i, 1000, 10)
		s.Assign(float64(i), 100, views(j))
		s.Assign(float64(i)+0.5, 100, views()) // job vanished: completed
	}
	if s.Refits() == 0 {
		t.Fatal("no refit after warmup completions")
	}
	refitted := s.Thresholds()
	if len(refitted) != len(initial) {
		t.Fatalf("ladder size changed: %d -> %d", len(initial), len(refitted))
	}
	// The new first threshold should be near the observed sizes (~1000), not
	// the initial 100.
	if refitted[0] < 500 || refitted[0] > 1100 {
		t.Errorf("first threshold after refit = %v, want near observed size 1000", refitted[0])
	}
}

func TestAdaptiveNoRefitDuringWarmup(t *testing.T) {
	s := newAdaptive(t, func(c *core.AdaptiveConfig) { c.WarmupJobs = 100 })
	for i := 1; i <= 20; i++ {
		j := job(i, i, 50, 10)
		s.Assign(float64(i), 100, views(j))
		s.Assign(float64(i)+0.5, 100, views())
	}
	if s.Refits() != 0 {
		t.Errorf("refitted %d times during warmup", s.Refits())
	}
}

func TestAdaptiveLadderCoversObservedRange(t *testing.T) {
	s := newAdaptive(t, func(c *core.AdaptiveConfig) {
		c.WarmupJobs = 20
		c.RefitEvery = 20
	})
	// Sizes spanning 1 .. 10000.
	for i := 1; i <= 40; i++ {
		size := math.Pow(10, float64(i%5)) // 1, 10, 100, 1000, 10000
		j := job(i, i, size, 10)
		s.Assign(float64(i), 100, views(j))
		s.Assign(float64(i)+0.5, 100, views())
	}
	if s.Refits() == 0 {
		t.Fatal("expected at least one refit")
	}
	th := s.Thresholds()
	if th[0] > 100 {
		t.Errorf("first threshold %v too high for sizes starting at 1", th[0])
	}
	last := th[len(th)-1]
	if last < 1000 {
		t.Errorf("last threshold %v does not cover the large sizes", last)
	}
	// Monotone increasing ladder.
	for i := 1; i < len(th); i++ {
		if th[i] <= th[i-1] {
			t.Errorf("ladder not increasing at %d: %v", i, th)
		}
	}
}

func TestAdaptiveSchedulesLikeLASMQ(t *testing.T) {
	// Behavioural check: after adaptation, small jobs still overtake large
	// demoted ones.
	s := newAdaptive(t, nil)
	long := job(1, 1, 0, 1000)
	for i := 0; i < 5; i++ {
		long.AttainedVal += 400
		long.EstimatedVal = long.AttainedVal
		s.Assign(float64(i), 100, views(long))
	}
	small := job(2, 2, 0, 1000)
	alloc := s.Assign(10, 100, views(long, small))
	if alloc[2] <= alloc[1] {
		t.Errorf("small job got %v vs demoted long job %v", alloc[2], alloc[1])
	}
}

// TestAdaptiveRecoversFromMisconfiguredLadder is the headline test for the
// extension: with thresholds wildly wrong for the workload's scale, the
// adaptive variant should approach the well-configured fixed ladder.
func TestAdaptiveRecoversFromMisconfiguredLadder(t *testing.T) {
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = 4000
	tcfg.Seed = 3
	specs, err := trace.Facebook(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := fluid.Config{Capacity: tcfg.Capacity, TaskDuration: 1}

	run := func(policy sched.Scheduler) float64 {
		res, err := fluid.Run(specs, policy, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, jr := range res.Jobs {
			sum += jr.ResponseTime
		}
		return sum / float64(len(res.Jobs))
	}

	// Fixed ladder misconfigured by 6 orders of magnitude: every job crosses
	// all thresholds immediately, collapsing the multilevel structure.
	badCfg := core.Config{
		Queues: 10, FirstThreshold: 1e-6, Step: 2,
		QueueWeightDecay: 8,
	}
	bad, err := core.New(badCfg)
	if err != nil {
		t.Fatal(err)
	}
	badMean := run(bad)

	acfg := core.DefaultAdaptiveConfig()
	acfg.StageAware = false
	acfg.OrderByDemand = false
	acfg.InitialThreshold = 1e-6
	acfg.InitialStep = 2
	adaptive, err := core.NewAdaptive(acfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveMean := run(adaptive)

	if adaptive.Refits() == 0 {
		t.Fatal("adaptive scheduler never refitted")
	}
	if adaptiveMean >= badMean {
		t.Errorf("adaptive (%v) did not improve on the misconfigured fixed ladder (%v)",
			adaptiveMean, badMean)
	}
}

// quantileSorted is the q-quantile of a sorted slice as Adaptive's refit read
// it before it selected: the oracle of TestQuantileMatchesSort.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestQuantileMatchesSort: the refit's quantiles, read by selection on one
// reused buffer that each read reorders, are bit for bit those of a sort, on
// random histories drawn from pools small enough to hold ties, at q = 0 and 1
// and in between.
func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(200)
		pool := make([]float64, 1+rng.Intn(n))
		for i := range pool {
			pool[i] = math.Exp(8 * rng.Float64())
		}
		history := make([]float64, n)
		for i := range history {
			history[i] = pool[rng.Intn(len(pool))]
		}
		sorted := slices.Clone(history)
		sort.Float64s(sorted)
		buf := slices.Clone(history)
		for _, q := range []float64{0, 1, 0.2, 0.98, rng.Float64(), 0.5} {
			if got, want := core.Quantile(buf, q), quantileSorted(sorted, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("history %v, q=%v: selection %v, sort %v", history, q, got, want)
			}
		}
	}
}
