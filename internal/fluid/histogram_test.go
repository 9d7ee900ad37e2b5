package fluid_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// TestHistogramSideChannels pins the fluid substrate's wiring into the
// Histograms sink: every completed job feeds the response histogram via
// JobDone and the slowdown histogram via its ObserveSlowdown side-channel
// (slowdown is fluid-derived state, not a probe event), every admission
// feeds the wait histogram, and the driver feeds wall-clock round latency,
// one observation per executed round whichever form it drives the policy
// through — all without perturbing the simulation.
func TestHistogramSideChannels(t *testing.T) {
	newLASMQ := func() sched.Scheduler {
		mq, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return mq
	}
	for name, newPolicy := range map[string]func() sched.Scheduler{
		"LAS dense":    func() sched.Scheduler { return sched.NewLAS() },
		"LAS_MQ dense": newLASMQ,
		"LAS_MQ map":   func() sched.Scheduler { return schedtest.MapOnly(newLASMQ()) },
	} {
		t.Run(name, func(t *testing.T) { histogramSideChannels(t, newPolicy) })
	}
}

func histogramSideChannels(t *testing.T, newPolicy func() sched.Scheduler) {
	rng := rand.New(rand.NewSource(3))
	specs := make([]fluid.JobSpec, 60)
	for i := range specs {
		specs[i] = fluid.JobSpec{
			ID:      i,
			Arrival: rng.Float64() * 50,
			Size:    1 + rng.ExpFloat64()*20,
			Width:   1 + float64(rng.Intn(4)),
		}
	}
	cfg := fluid.Config{Capacity: 8, TaskDuration: 1, MaxRunningJobs: 6}
	plain, err := fluid.Run(specs, newPolicy(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	h := obs.NewHistograms()
	cfg.Probe = h
	probed, err := fluid.Run(specs, newPolicy(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, probed) {
		t.Fatal("attaching the histogram sink changed the fluid result")
	}

	resp, _ := h.Histogram(obs.HistResponse)
	slow, _ := h.Histogram(obs.HistSlowdown)
	wait, _ := h.Histogram(obs.HistAdmissionWait)
	lat, _ := h.Histogram(obs.HistRoundLatency)
	if int(resp.Count()) != len(specs) || int(slow.Count()) != len(specs) {
		t.Fatalf("response/slowdown saw %d/%d jobs, want %d each", resp.Count(), slow.Count(), len(specs))
	}
	if int(wait.Count()) != len(specs) {
		t.Fatalf("admission wait saw %d jobs, want %d", wait.Count(), len(specs))
	}
	if int(lat.Count()) != probed.Rounds || probed.Rounds == 0 {
		t.Fatalf("driver recorded %d round latencies over %d executed rounds", lat.Count(), probed.Rounds)
	}

	// The histogram aggregates must agree with the exact per-job results.
	sl := probed.Slowdowns()
	var sum float64
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, s := range sl {
		sum += s
		mn = math.Min(mn, s)
		mx = math.Max(mx, s)
	}
	snap := slow.Snapshot()
	if snap.Min != mn || snap.Max != mx {
		t.Fatalf("slowdown extremes: hist [%g, %g], exact [%g, %g]", snap.Min, snap.Max, mn, mx)
	}
	if math.Abs(snap.Sum-sum) > 1e-9*math.Abs(sum) {
		t.Fatalf("slowdown sum: hist %g, exact %g", snap.Sum, sum)
	}
	if mn > 0 && (snap.P50 <= 0 || snap.P50 > mx) {
		t.Fatalf("slowdown p50 %g escapes (0, %g]", snap.P50, mx)
	}
}
