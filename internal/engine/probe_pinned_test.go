package engine_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/engine"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// pinnedGittinsModel is the service distribution the pinned Gittins runs
// schedule from: a mixture of a small and a large lognormal cluster, under
// which the index rises and falls with attained service, so the ranking
// changes mid-run.
func pinnedGittinsModel(t testing.TB) dist.Service {
	t.Helper()
	m, err := dist.NewMixture([]dist.Service{
		dist.LognormalService{Mu: 2, Sigma: 0.4},
		dist.LognormalService{Mu: 4.5, Sigma: 0.6},
	}, []float64{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// namedPolicy is one row of an ordered policy table.
type namedPolicy struct {
	name string
	new  func() sched.Scheduler
}

// pinnedPolicies are the policies whose probe streams TestProbeStreamPinned
// holds: SRPT, Gittins, the adaptive wrapper, a blend and LAS_MQ.
func pinnedPolicies(t *testing.T) []namedPolicy {
	mq := func() *core.LASMQ {
		s, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	model := pinnedGittinsModel(t)
	return []namedPolicy{
		{"SRPT", func() sched.Scheduler { return sched.NewSRPT() }},
		{"Gittins", func() sched.Scheduler { return sched.NewGittins(model) }},
		{"Adaptive", func() sched.Scheduler {
			cfg := core.DefaultAdaptiveConfig()
			cfg.WarmupJobs = 4
			cfg.RefitEvery = 4
			a, err := core.NewAdaptive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"Blend", func() sched.Scheduler {
			b, err := sched.NewBlend(mq(), sched.NewFair(), 0.4)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"LAS_MQ", func() sched.Scheduler { return mq() }},
	}
}

// TestProbeStreamPinned holds the engine's JSONL probe stream — every round,
// launch, completion and queue event — for each pinned policy on
// diffWorkload's seed 1 under every noise configuration against
// testdata/probe_streams.txt (go test ./internal/engine -run
// TestProbeStreamPinned -update-pinned rewrites it). TestConform compares
// two forms of one binary's policies; this file is the other binary,
// written before these policies' map forms were rebuilt on their dense ones.
func TestProbeStreamPinned(t *testing.T) {
	specs := diffWorkload(1, 60)
	configs := diffConfigs()
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	slices.Sort(names)
	var got bytes.Buffer
	for _, p := range pinnedPolicies(t) {
		for _, cname := range names {
			cfg := engine.DefaultConfig()
			cfg.Containers = 20
			cfg.MaxRunningJobs = 0
			cfg.Seed = 1
			configs[cname](&cfg)
			var log bytes.Buffer
			sink := obs.NewJSONL(&log)
			cfg.Probe = sink
			if _, err := engine.Run(specs, p.new(), cfg); err != nil {
				t.Fatalf("%s/%s: %v", p.name, cname, err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(log.Bytes())
			fmt.Fprintf(&got, "%s %s %d %016x\n", p.name, cname, log.Len(), h.Sum64())
		}
	}
	schedtest.Pinned(t, "testdata/probe_streams.txt", got.Bytes())
}
