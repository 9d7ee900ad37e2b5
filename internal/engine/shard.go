// Sharded task-level simulation: the cluster is partitioned into Shards
// independent sub-clusters of equal container counts, each simulated as its
// own streaming engine run (its own pooled job records, attempt slabs, and
// RNG stream), and the per-shard StreamResults are folded in shard order.
// The plan/pool/latch machinery is the substrate sharded-runner kernel
// (substrate.PlanShards / substrate.RunShards — see
// internal/substrate/shard.go for the Shards-vs-Workers contract); this file
// owns what is engine-specific: container partitioning, per-shard seed
// derivation, and the StreamResult fold.
package engine

import (
	"errors"
	"fmt"

	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// ShardedConfig parameterizes a sharded engine run. The embedded Config
// describes the whole cluster: Containers is divided evenly across shards
// (it must be divisible by Shards — containers are discrete), and
// MaxRunningJobs (if set) applies per shard. Chaos injection (failures,
// stragglers, speculation) runs inside each shard with its own RNG stream
// seeded Seed+shard, so chaos is per-shard-deterministic: part of the
// simulated system, invariant under Workers.
type ShardedConfig struct {
	Config
	// Shards is the number of cluster partitions (>= 1; 0 means 1). Part of
	// the simulated system: it changes results and is fingerprinted.
	Shards int
	// Workers bounds concurrently advancing shards; 0 means GOMAXPROCS.
	// It never affects results. When a Probe is attached, execution is
	// serialized (Workers=1) so sinks need not be concurrency-safe and the
	// event stream stays deterministic; being execution-only, that cannot
	// change results either.
	Workers int
}

// RunSharded simulates a workload partitioned across cfg.Shards independent
// sub-clusters, each a full streaming engine run with chaos injection.
// newSource must return shard i's job stream — typically
// substrate.Strided(src, i, cfg.Shards) over an independent source instance
// per shard, which walks the whole trace but builds only the jobs shard i
// keeps when the source can Skip — and newPolicy a fresh scheduler per shard.
// Shard i runs with Containers/Shards containers and RNG seed cfg.Seed+i (so
// Shards=1 reproduces RunStream with cfg.Seed byte-identically). Per-shard
// results are folded in shard-index order into one StreamResult: Makespan is
// the max across shards, Utilization is total busy container-seconds over
// total containers across the global makespan, and PeakUsage sums the
// per-shard peaks (an upper bound on global concurrency — shard peaks need not
// coincide in time).
func RunSharded(newSource func(shard int) (Source, error), newPolicy func() (sched.Scheduler, error), cfg ShardedConfig) (*StreamResult, error) {
	if newSource == nil || newPolicy == nil {
		return nil, errors.New("engine: nil source or policy constructor")
	}
	plan, err := substrate.PlanShards(cfg.Shards, cfg.Workers, cfg.Probe != nil)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := cfg.Config.validate(); err != nil {
		return nil, err
	}
	if cfg.Containers%plan.Shards != 0 {
		return nil, fmt.Errorf("engine: containers (%d) must divide evenly across shards (%d)",
			cfg.Containers, plan.Shards)
	}

	shardCfg := cfg.Config
	shardCfg.Containers = cfg.Containers / plan.Shards

	results, err := substrate.RunShards(plan, func(shard int) (*StreamResult, error) {
		src, err := newSource(shard)
		if err != nil {
			return nil, err
		}
		policy, err := newPolicy()
		if err != nil {
			return nil, err
		}
		scfg := shardCfg
		scfg.Seed = cfg.Seed + int64(shard)
		return RunStream(src, policy, scfg, nil)
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	// Fold in shard-index order: deterministic float summation.
	out := &StreamResult{}
	for shard, r := range results {
		if shard == 0 {
			out.Scheduler = r.Scheduler
		}
		out.Jobs += r.Jobs
		out.SumResponse += r.SumResponse
		out.SumService += r.SumService
		out.Busy += r.Busy
		out.Attempts += r.Attempts
		out.Failures += r.Failures
		out.Speculative += r.Speculative
		out.PeakUsage += r.PeakUsage
		if r.Makespan > out.Makespan {
			out.Makespan = r.Makespan
		}
		out.Slab.Live += r.Slab.Live
		out.Slab.Peak += r.Slab.Peak
		out.Slab.Recycled += r.Slab.Recycled
		out.AttemptSlab.Live += r.AttemptSlab.Live
		out.AttemptSlab.Peak += r.AttemptSlab.Peak
		out.AttemptSlab.Recycled += r.AttemptSlab.Recycled
	}
	if out.Makespan > 0 {
		out.Utilization = out.Busy / (out.Makespan * float64(cfg.Containers))
	}
	return out, nil
}
