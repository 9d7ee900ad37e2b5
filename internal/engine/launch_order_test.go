package engine_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/launch_order.txt from the launches the engine makes now")

// launchFold folds every TaskStart event, in the order the engine emits them,
// into one FNV-1a hash: which attempt a round launches, and in which order
// within the round, both move it.
type launchFold struct {
	obs.Nop
	h hash.Hash64
	n int
}

func (f *launchFold) TaskStart(now float64, jobID, stage, task, containers int, speculative bool) {
	spec := uint64(0)
	if speculative {
		spec = 1
	}
	for _, v := range [6]uint64{math.Float64bits(now), uint64(jobID), uint64(stage), uint64(task), uint64(containers), spec} {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.h.Write(b[:])
	}
	f.n++
}

// launchPolicies are the policies TestLaunchOrderPinned runs, with thresholds
// low enough that LAS_MQ demotes and Adaptive refits within sixty jobs.
func launchPolicies(t *testing.T) []func() sched.Scheduler {
	return []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFIFO() },
		func() sched.Scheduler { return sched.NewFair() },
		func() sched.Scheduler { return sched.NewLAS() },
		func() sched.Scheduler {
			cfg := core.DefaultConfig()
			cfg.FirstThreshold = 10
			s, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		func() sched.Scheduler { return sched.NewSRPT() },
		func() sched.Scheduler {
			cfg := core.DefaultAdaptiveConfig()
			cfg.InitialThreshold = 10
			cfg.WarmupJobs = 8
			cfg.RefitEvery = 8
			s, err := core.NewAdaptive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

// TestLaunchOrderPinned holds the engine's launch sequence — every TaskStart
// (time bits, job, stage, task, containers, speculative) in emission order —
// against testdata/launch_order.txt, which was written at the last commit
// where a round fully sorted its launch candidates (go test ./internal/engine
// -run TestLaunchOrderPinned -update-pinned rewrites it).
// TestIncrementalMatchesFull compares two modes of one binary, so a change to
// how the round picks the next candidate would move both sides together; this
// file is the other binary. The workload is orderSpecs: 2-container reduce
// tasks (the reservation path), diamond DAGs, job IDs neither dense nor in
// arrival order, with failures, stragglers and speculation on. "tight" has
// the admission cap binding at 6 jobs on 9 containers; "wide" runs 14 jobs on
// the same 9, so a round that enters with one container just freed has more
// launch candidates than free containers and stops serving them early: under
// FAIR 487 of its 537 executed rounds leave candidates unserved, and no case
// of either shape fewer than 328 of about 510 (counted when this was written).
func TestLaunchOrderPinned(t *testing.T) {
	specs := orderSpecs(60)
	sorted := arrivalSorted(specs)
	var got bytes.Buffer
	for _, shape := range []struct {
		name       string
		maxRunning int
	}{{"tight", 6}, {"wide", 14}} {
		for _, mk := range launchPolicies(t) {
			for _, mode := range []string{"run", "stream"} {
				fold := &launchFold{h: fnv.New64a()}
				cfg := engine.DefaultConfig()
				cfg.Containers = 9
				cfg.MaxRunningJobs = shape.maxRunning
				cfg.Seed = 5
				cfg.FailureProb = 0.1
				cfg.StragglerProb = 0.2
				cfg.StragglerFactor = 3
				cfg.Speculation = true
				cfg.Probe = fold
				var name string
				if mode == "run" {
					res, err := engine.Run(specs, mk(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					name = res.Scheduler
				} else {
					res, err := engine.RunStream(engine.SliceSource(sorted), mk(), cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					name = res.Scheduler
				}
				fmt.Fprintf(&got, "%s %s %s %d %016x\n", shape.name, name, mode, fold.n, fold.h.Sum64())
			}
		}
	}
	const path = "testdata/launch_order.txt"
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
