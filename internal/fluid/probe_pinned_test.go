package fluid_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/fluid"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/probe_streams.txt from the streams the simulator emits now")

// pinnedPolicies are the policies whose probe streams TestProbeStreamPinned
// holds — SRPT, Gittins, the adaptive wrapper, a blend and the queue recorder
// — with LAS_MQ in the trace-simulation configuration of diffPolicies.
func pinnedPolicies(t *testing.T) []namedPolicy {
	mq := func() *core.LASMQ {
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 1
		cfg.StageAware = false
		cfg.OrderByDemand = false
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	model, err := dist.NewMixture([]dist.Service{
		dist.LognormalService{Mu: 0, Sigma: 0.5},
		dist.LognormalService{Mu: 4, Sigma: 1},
	}, []float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return []namedPolicy{
		{"SRPT", func() (sched.Scheduler, error) { return sched.NewSRPT(), nil }},
		{"Gittins", func() (sched.Scheduler, error) { return sched.NewGittins(model), nil }},
		{"Adaptive", func() (sched.Scheduler, error) {
			cfg := core.DefaultAdaptiveConfig()
			cfg.InitialThreshold = 1
			cfg.StageAware = false
			cfg.OrderByDemand = false
			cfg.WarmupJobs = 4
			cfg.RefitEvery = 4
			return core.NewAdaptive(cfg)
		}},
		{"Blend", func() (sched.Scheduler, error) { return sched.NewBlend(mq(), sched.NewFair(), 0.4) }},
		{"QueueRecorder", func() (sched.Scheduler, error) { return core.NewQueueRecorder(mq(), 0), nil }},
	}
}

// namedPolicy is one row of an ordered policy table.
type namedPolicy struct {
	name string
	new  func() (sched.Scheduler, error)
}

// TestProbeStreamPinned holds the fluid simulator's JSONL probe stream for
// each pinned policy on diffTrace's seed 1 against testdata/probe_streams.txt
// (go test ./internal/fluid -run TestProbeStreamPinned -update-pinned
// rewrites it). TestDenseMatchesMapOnly compares two forms of one binary's
// policies; this file is the other binary, written before these policies' map
// forms were rebuilt on their dense ones. The queue recorder's samples are
// folded in after its stream.
func TestProbeStreamPinned(t *testing.T) {
	specs, tcfg := diffTrace(t, 1)
	var got bytes.Buffer
	for _, p := range pinnedPolicies(t) {
		policy, err := p.new()
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		sink := obs.NewJSONL(&log)
		fcfg := fluid.DefaultConfig()
		fcfg.Capacity = tcfg.Capacity
		fcfg.Probe = sink
		if _, err := fluid.Run(specs, policy, fcfg); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(log.Bytes())
		if rec, ok := policy.(*core.QueueRecorder); ok {
			fmt.Fprint(h, rec.Samples())
		}
		fmt.Fprintf(&got, "%s %d %016x\n", p.name, log.Len(), h.Sum64())
	}
	const path = "testdata/probe_streams.txt"
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("probe streams moved:\n got:\n%s pinned:\n%s", got.Bytes(), want)
	}
}
