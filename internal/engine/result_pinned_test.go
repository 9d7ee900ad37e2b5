package engine_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
)

// resultDigest folds a whole *engine.Result into one FNV-64a hash, floats by
// their bit patterns: every Jobs entry in slice order, the mean response time, the per-bin means in ascending bin, the makespan,
// utilization and peak usage.
func resultDigest(res *engine.Result) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	f := func(x float64) { word(math.Float64bits(x)) }
	fmt.Fprintf(h, "%s|%d|", res.Scheduler, len(res.Jobs))
	for _, j := range res.Jobs {
		fmt.Fprintf(h, "%s|", j.Name)
		word(uint64(j.ID))
		word(uint64(j.Bin))
		for _, x := range []float64{j.Arrival, j.Admitted, j.Completed, j.ResponseTime, j.Service} {
			f(x)
		}
		word(uint64(j.Attempts))
		word(uint64(j.Failures))
		word(uint64(j.Speculative))
	}
	f(res.MeanResponseTime())
	means := res.BinMeans()
	bins := make([]int, 0, len(means))
	for bin := range means {
		bins = append(bins, bin)
	}
	slices.Sort(bins)
	for _, bin := range bins {
		word(uint64(bin))
		f(means[bin])
	}
	f(res.Makespan)
	f(res.Utilization)
	word(uint64(res.PeakUsage))
	return h.Sum64()
}

// TestRunResultPinned holds engine.Run's whole result — per-job outcomes in
// workload order and the statistics folded from them — against
// testdata/run_results.txt (go test ./internal/engine -run
// TestRunResultPinned -update-pinned rewrites it). The inputs are
// diffWorkload's seeds 1-3 under every noise configuration of diffConfigs,
// and orderSpecs, whose spec, ID and arrival orders all differ, under a
// binding admission cap with and without chaos.
func TestRunResultPinned(t *testing.T) {
	mq := core.DefaultConfig()
	mq.FirstThreshold = 10
	policies := []string{"FIFO", "FAIR", "LAS", "LAS_MQ"}
	var got bytes.Buffer
	run := func(name string, specs []job.Spec, policy string, cfg engine.Config) {
		t.Helper()
		p, err := core.NewPolicy(policy, mq)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(specs, p, cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", name, policy, err)
		}
		fmt.Fprintf(&got, "%s %s %016x\n", name, policy, resultDigest(res))
	}

	configs := diffConfigs()
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	slices.Sort(names)
	for seed := int64(1); seed <= 3; seed++ {
		specs := diffWorkload(seed, 40)
		for _, cname := range names {
			for _, policy := range policies {
				cfg := engine.DefaultConfig()
				cfg.Containers = 20
				cfg.MaxRunningJobs = 0
				cfg.Seed = seed
				configs[cname](&cfg)
				run(fmt.Sprintf("diff/seed%d/%s", seed, cname), specs, policy, cfg)
			}
		}
	}

	specs := orderSpecs(60)
	for _, chaos := range []bool{false, true} {
		for _, policy := range policies {
			cfg := engine.DefaultConfig()
			cfg.Containers = 9
			cfg.MaxRunningJobs = 6
			cfg.Seed = 5
			if chaos {
				cfg.FailureProb = 0.1
				cfg.StragglerProb = 0.2
				cfg.StragglerFactor = 3
				cfg.Speculation = true
			}
			run(fmt.Sprintf("order/chaos=%v", chaos), specs, policy, cfg)
		}
	}
	checkPinned(t, "testdata/run_results.txt", got.Bytes())
}
