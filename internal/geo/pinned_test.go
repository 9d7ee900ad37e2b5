package geo

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/sched"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned.txt from what Run returns now")

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

// TestGeoPinned holds Run's per-job results bit for bit against
// testdata/pinned.txt, which was written at the last commit where Run called
// policy.Assign and sched.Quantize itself (go test ./internal/geo -run
// TestGeoPinned -update-pinned rewrites it).
func TestGeoPinned(t *testing.T) {
	specs := pinnedSpecs()
	var got bytes.Buffer
	for _, mk := range pinnedPolicies(t) {
		for _, placement := range []PlacementPolicy{PlaceLocalityAware, PlaceBlind} {
			cfg := DefaultConfig()
			cfg.SiteContainers = []int{6, 5, 7}
			cfg.Placement = placement
			cfg.Seed = 11
			res, err := Run(specs, mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, jr := range res.Jobs {
				fmt.Fprintf(&got, "%s %s %d %016x %d %016x\n", res.Scheduler, placement, jr.ID,
					math.Float64bits(jr.Completed), jr.RemoteTasks, math.Float64bits(jr.TransferTime))
			}
		}
	}
	const path = "testdata/pinned.txt"
	if *updatePinned {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d: got %q, pinned %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%d lines, pinned %d", len(gotLines), len(wantLines))
}
