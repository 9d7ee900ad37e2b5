package engine_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// shardPolicies is the four-policy differential set the sharded contracts
// are pinned over (mirrors the fluid sharded differentials).
var shardPolicyNames = []string{"LASMQ-attained", "LAS", "Fair", "FIFO"}

// shardSource returns shard's stream of a workload: Strided over its own
// independent slice replay, the per-shard source shape RunSharded documents.
func shardSource(specs []job.Spec, shard, shards int) engine.Source {
	return substrate.Strided[job.Spec](engine.SliceSource(specs), shard, shards)
}

// TestEngineShardedOneShardMatchesStream pins the Shards=1 byte-identity
// contract: a one-shard sharded run is exactly RunStream — same seed, same
// container count, DeepEqual result — across 3 seeds × 4 policies, with
// chaos injection on.
func TestEngineShardedOneShardMatchesStream(t *testing.T) {
	policies := diffPolicies(t)
	for _, seed := range []int64{1, 7, 42} {
		specs := diffWorkload(seed, 90)
		for _, name := range shardPolicyNames {
			newPolicy := policies[name]
			if newPolicy == nil {
				t.Fatalf("unknown policy %q", name)
			}
			want, err := engine.RunStream(engine.SliceSource(specs), newPolicy(), streamChaosConfig(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			scfg := engine.ShardedConfig{Config: streamChaosConfig(seed), Shards: 1, Workers: 1}
			got, err := engine.RunSharded(
				func(shard int) (engine.Source, error) { return shardSource(specs, shard, 1), nil },
				func() (sched.Scheduler, error) { return newPolicy(), nil },
				scfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d %s: Shards=1 diverged from RunStream:\n want %+v\n  got %+v", seed, name, want, got)
			}
		}
	}
}

// TestEngineShardedWorkerCountDoesNotAffectResults pins the Workers contract
// under full chaos (failures, stragglers, speculation): Workers is execution
// parallelism only, so Workers=1 and Workers=8 at Shards=8 are DeepEqual.
func TestEngineShardedWorkerCountDoesNotAffectResults(t *testing.T) {
	policies := diffPolicies(t)
	const shards = 8
	for _, seed := range []int64{3, 11} {
		specs := diffWorkload(seed, 120)
		for _, name := range shardPolicyNames {
			newPolicy := policies[name]
			cfg := streamChaosConfig(seed)
			cfg.Containers = 40 // divides by 8; 5 containers per shard
			newSource := func(shard int) (engine.Source, error) {
				return shardSource(specs, shard, shards), nil
			}
			newPol := func() (sched.Scheduler, error) { return newPolicy(), nil }

			serial, err := engine.RunSharded(newSource, newPol,
				engine.ShardedConfig{Config: cfg, Shards: shards, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := engine.RunSharded(newSource, newPol,
				engine.ShardedConfig{Config: cfg, Shards: shards, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("seed %d %s: Workers=8 diverged from Workers=1:\n want %+v\n  got %+v",
					seed, name, serial, parallel)
			}
			if serial.Jobs != len(specs) {
				t.Fatalf("seed %d %s: %d jobs completed, want %d", seed, name, serial.Jobs, len(specs))
			}
			if serial.Attempts < serial.Jobs {
				t.Fatalf("seed %d %s: %d attempts < %d jobs", seed, name, serial.Attempts, serial.Jobs)
			}
		}
	}
}

// TestEngineShardedSeedsDiffer pins that shards are chaos-independent: each
// shard draws from its own RNG stream (Seed+shard), so changing the base
// seed changes the folded outcome (chaos is simulated state, not noise).
func TestEngineShardedSeedsDiffer(t *testing.T) {
	specs := diffWorkload(5, 120)
	cfg := streamChaosConfig(5)
	cfg.Containers = 40
	run := func(seed int64) *engine.StreamResult {
		t.Helper()
		cfg := cfg
		cfg.Seed = seed
		res, err := engine.RunSharded(
			func(shard int) (engine.Source, error) { return shardSource(specs, shard, 4), nil },
			func() (sched.Scheduler, error) { return sched.NewLAS(), nil },
			engine.ShardedConfig{Config: cfg, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(5), run(6)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical sharded results; chaos RNG not wired per shard")
	}
}

// TestEngineShardedValidation pins the config error surface: flag-naming
// shard/worker validation from the substrate plan, and the engine-specific
// container-divisibility check.
func TestEngineShardedValidation(t *testing.T) {
	specs := diffWorkload(2, 10)
	newSource := func(shard int) (engine.Source, error) { return shardSource(specs, shard, 1), nil }
	newPol := func() (sched.Scheduler, error) { return sched.NewFIFO(), nil }

	cfg := streamChaosConfig(2)
	if _, err := engine.RunSharded(newSource, newPol,
		engine.ShardedConfig{Config: cfg, Shards: -1}); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("negative shards error should name the -shards flag, got %v", err)
	}
	if _, err := engine.RunSharded(newSource, newPol,
		engine.ShardedConfig{Config: cfg, Shards: 2, Workers: -3}); err == nil || !strings.Contains(err.Error(), "-shard-workers") {
		t.Fatalf("negative workers error should name the -shard-workers flag, got %v", err)
	}
	cfg.Containers = 20
	if _, err := engine.RunSharded(newSource, newPol,
		engine.ShardedConfig{Config: cfg, Shards: 3}); err == nil || !strings.Contains(err.Error(), "divide evenly") {
		t.Fatalf("20 containers across 3 shards should fail divisibility, got %v", err)
	}
}

// TestEngineShardedMoreShardsThanJobs pins the empty-shard fold: with more
// shards than jobs the high shards run over empty strided streams, complete
// with zero jobs, and the fold still accounts for every job exactly once.
func TestEngineShardedMoreShardsThanJobs(t *testing.T) {
	specs := diffWorkload(8, 3) // 3 jobs across 8 shards
	cfg := streamChaosConfig(8)
	cfg.Containers = 40
	res, err := engine.RunSharded(
		func(shard int) (engine.Source, error) { return shardSource(specs, shard, 8), nil },
		func() (sched.Scheduler, error) { return sched.NewLAS(), nil },
		engine.ShardedConfig{Config: cfg, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != len(specs) {
		t.Fatalf("%d jobs completed, want %d", res.Jobs, len(specs))
	}
	if res.Makespan <= 0 || res.Utilization <= 0 {
		t.Fatalf("degenerate fold: makespan %v utilization %v", res.Makespan, res.Utilization)
	}
}

// TestEngineShardedSourceErrorNamesShard pins the latched-error surface: a
// source failure inside shard k>0 aborts the run and names the shard.
func TestEngineShardedSourceErrorNamesShard(t *testing.T) {
	sentinel := errors.New("tape ran out")
	specs := diffWorkload(6, 40)
	cfg := streamChaosConfig(6)
	cfg.Containers = 40
	_, err := engine.RunSharded(
		func(shard int) (engine.Source, error) {
			if shard != 2 {
				return shardSource(specs, shard, 4), nil
			}
			i := 0
			return sourceFunc(func() (job.Spec, bool, error) {
				if i >= 5 {
					return job.Spec{}, false, sentinel
				}
				s := specs[i*4+2]
				i++
				return s, true, nil
			}), nil
		},
		func() (sched.Scheduler, error) { return sched.NewFIFO(), nil },
		engine.ShardedConfig{Config: cfg, Shards: 4, Workers: 1})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v should wrap the source error", err)
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("error %q should name the failed shard", err)
	}
}

// TestEngineShardedProbePerShardCounters pins the telemetry fan-in: a
// Counters sink attached to a sharded run collects per-shard SlabStats and
// round events under the shard label while the global aggregates still fold
// everything — and attaching the probe does not change results.
func TestEngineShardedProbePerShardCounters(t *testing.T) {
	specs := diffWorkload(9, 80)
	cfg := streamChaosConfig(9)
	cfg.Containers = 40
	const shards = 4
	newSource := func(shard int) (engine.Source, error) { return shardSource(specs, shard, shards), nil }
	newPol := func() (sched.Scheduler, error) { return sched.NewLAS(), nil }

	bare, err := engine.RunSharded(newSource, newPol,
		engine.ShardedConfig{Config: cfg, Shards: shards, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	c := obs.NewCounters()
	pcfg := cfg
	pcfg.Probe = c
	probed, err := engine.RunSharded(newSource, newPol,
		engine.ShardedConfig{Config: pcfg, Shards: shards, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, probed) {
		t.Fatalf("probe perturbed sharded results:\n want %+v\n  got %+v", bare, probed)
	}

	if idx := c.ShardIndexes(); len(idx) != shards {
		t.Fatalf("ShardIndexes = %v, want %d shards", idx, shards)
	}
	var jobs, peak int64
	for shard := 0; shard < shards; shard++ {
		s, ok := c.ShardSnapshot(shard)
		if !ok {
			t.Fatalf("no counters recorded for shard %d", shard)
		}
		if s.RoundsExecuted == 0 {
			t.Fatalf("shard %d recorded no scheduling rounds", shard)
		}
		jobs += s.JobsCompleted
		if s.SlabPeakLive > peak {
			peak = s.SlabPeakLive
		}
	}
	global := c.Snapshot()
	if jobs != global.JobsCompleted || int(jobs) != probed.Jobs {
		t.Fatalf("per-shard jobs %d, global %d, result %d — shard attribution leaks",
			jobs, global.JobsCompleted, probed.Jobs)
	}
	if global.SlabPeakLive != peak {
		t.Fatalf("global slab peak %d, max per-shard %d", global.SlabPeakLive, peak)
	}
}

// TestEngineShardedHistogramMerge is the histogram merge contract over the
// sharded engine, 3 seeds x 4 policies with chaos on: a Histograms sink
// attached to a K-shard run must (a) not perturb results, (b) see every
// completion exactly once globally, and (c) satisfy the shard-merge
// identity — folding the per-shard histograms in ascending shard-index
// order reproduces the global histogram bucket-for-bucket, so the K-shard
// merged distribution IS the run's single global distribution. For K=1 the
// same identity pins the sharded fan-in against the plain stream sink.
func TestEngineShardedHistogramMerge(t *testing.T) {
	policies := diffPolicies(t)
	const shards = 4
	for _, seed := range []int64{1, 7, 42} {
		specs := diffWorkload(seed, 90)
		for _, name := range shardPolicyNames {
			newPolicy := policies[name]
			cfg := streamChaosConfig(seed)
			cfg.Containers = 40
			newSource := func(shard int) (engine.Source, error) {
				return shardSource(specs, shard, shards), nil
			}
			newPol := func() (sched.Scheduler, error) { return newPolicy(), nil }

			bare, err := engine.RunSharded(newSource, newPol,
				engine.ShardedConfig{Config: cfg, Shards: shards, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			h := obs.NewHistograms()
			pcfg := cfg
			pcfg.Probe = h
			probed, err := engine.RunSharded(newSource, newPol,
				engine.ShardedConfig{Config: pcfg, Shards: shards, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bare, probed) {
				t.Fatalf("seed %d %s: histogram sink perturbed sharded results", seed, name)
			}
			if got := len(h.ShardIndexes()); got != shards {
				t.Fatalf("seed %d %s: %d shard histograms derived, want %d", seed, name, got, shards)
			}
			for _, hist := range []string{obs.HistResponse, obs.HistTaskDuration, obs.HistAdmissionWait} {
				global, ok := h.Histogram(hist)
				if !ok {
					t.Fatalf("unknown histogram %q", hist)
				}
				merged := h.MergeShards(hist)
				if !merged.BucketsEqual(&global) {
					t.Fatalf("seed %d %s: shard-merged %s histogram differs from the global sink bucket-for-bucket",
						seed, name, hist)
				}
			}
			resp, _ := h.Histogram(obs.HistResponse)
			if int(resp.Count()) != probed.Jobs || probed.Jobs != len(specs) {
				t.Fatalf("seed %d %s: response histogram saw %d jobs, run completed %d of %d",
					seed, name, resp.Count(), probed.Jobs, len(specs))
			}
			if mean := resp.Sum() / float64(resp.Count()); math.Abs(mean-probed.MeanResponseTime()) > 1e-9*math.Abs(mean) {
				t.Fatalf("seed %d %s: histogram mean %g != stream mean %g", seed, name, mean, probed.MeanResponseTime())
			}
		}
	}
}
