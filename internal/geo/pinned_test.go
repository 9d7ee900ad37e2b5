package geo

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// pinnedSpecs is a seeded workload for TestGeoPinned: a few heavy scans among
// many small queries, data spread at random over three sites, two jobs
// arriving at the same instant, and job IDs that are neither dense nor in
// arrival order — the share total is summed in ascending ID, so an ID-order
// slip in the quantizer's rows would move the results.
func pinnedSpecs() []JobSpec {
	r := rand.New(rand.NewSource(19))
	var specs []JobSpec
	arrival := 0.0
	for i := 0; i < 40; i++ {
		if i != 17 {
			arrival += r.ExpFloat64() * 6
		}
		n := 4 + r.Intn(12)
		if i%7 == 3 {
			n = 120 + r.Intn(80)
		}
		tasks := make([]TaskSpec, n)
		for t := range tasks {
			tasks[t] = TaskSpec{Compute: 1 + 6*r.Float64(), DataSite: r.Intn(3), DataSize: 8 * r.Float64()}
		}
		specs = append(specs, JobSpec{ID: (i*37)%101 + 1, Arrival: arrival, Priority: 1 + i%3, Tasks: tasks})
	}
	return specs
}

// pinnedPolicies are the policies TestGeoPinned runs, with thresholds low
// enough that LAS_MQ demotes and Adaptive refits within forty jobs.
func pinnedPolicies(t *testing.T) []func() sched.Scheduler {
	mq := func() sched.Scheduler {
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 10
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	adaptive := func() sched.Scheduler {
		cfg := core.DefaultAdaptiveConfig()
		cfg.InitialThreshold = 10
		cfg.WarmupJobs = 8
		cfg.RefitEvery = 8
		s, err := core.NewAdaptive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFIFO() },
		func() sched.Scheduler { return sched.NewFair() },
		func() sched.Scheduler { return sched.NewLAS() },
		func() sched.Scheduler { return sched.NewSRPT() },
		mq,
		adaptive,
	}
}

// pinnedConfig is the configuration of TestGeoPinned's runs: three sites of
// six, five and seven containers under the given placement.
func pinnedConfig(placement PlacementPolicy) Config {
	cfg := DefaultConfig()
	cfg.SiteContainers = []int{6, 5, 7}
	cfg.Placement = placement
	cfg.Seed = 11
	return cfg
}

// TestGeoPinned holds Run's per-job results bit for bit against
// testdata/pinned.txt, which was written at the last commit where Run called
// policy.Assign and sched.Quantize itself (go test ./internal/geo -run
// TestGeoPinned -update-pinned rewrites it).
func TestGeoPinned(t *testing.T) {
	specs := pinnedSpecs()
	var got bytes.Buffer
	for _, mk := range pinnedPolicies(t) {
		for _, placement := range []PlacementPolicy{PlaceLocalityAware, PlaceBlind} {
			res, err := Run(specs, mk(), pinnedConfig(placement))
			if err != nil {
				t.Fatal(err)
			}
			for _, jr := range res.Jobs {
				fmt.Fprintf(&got, "%s %s %d %016x %d %016x\n", res.Scheduler, placement, jr.ID,
					math.Float64bits(jr.Completed), jr.RemoteTasks, math.Float64bits(jr.TransferTime))
			}
		}
	}
	schedtest.Pinned(t, "testdata/pinned.txt", got.Bytes())
}

// TestConform holds every policy of schedtest.Conform's table to its oracles
// on TestGeoPinned's workload under both placements, with LAS_MQ at a first
// threshold of 10. Run takes no probe, so the checks that read one are left
// out.
func TestConform(t *testing.T) {
	specs := pinnedSpecs()
	mq := core.DefaultConfig()
	mq.FirstThreshold = 10
	placements := []PlacementPolicy{PlaceLocalityAware, PlaceBlind}
	schedtest.Conform(t, &schedtest.Substrate{
		Inputs: []string{placements[0].String(), placements[1].String()},
		Run: func(i int, p sched.Scheduler, _ obs.Probe, check schedtest.Check) (any, error) {
			return Run(specs, schedtest.Watch(p, check), pinnedConfig(placements[i]))
		},
		Unprobed: true,
		LASMQ:    []core.Config{mq},
		Gittins:  dist.LognormalService{Mu: 3, Sigma: 1},
	})
}
