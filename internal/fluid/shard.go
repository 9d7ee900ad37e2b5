// Sharded simulation: the cluster is partitioned into Shards independent
// sub-clusters of equal capacity, each simulated as its own streaming fluid
// run over its own source, and the per-shard results are folded in shard
// order. The plan/pool/latch machinery is the substrate sharded-runner
// kernel (substrate.PlanShards / substrate.RunShards — see
// internal/substrate/shard.go for the Shards-vs-Workers contract); this file
// owns only what is fluid-specific: capacity partitioning and the
// StreamResult fold.
package fluid

import (
	"errors"
	"fmt"

	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// ShardedConfig parameterizes a sharded run. The embedded Config describes
// the whole cluster: Capacity is divided evenly across shards, and
// MaxRunningJobs (if set) applies per shard.
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

// RunSharded simulates a trace partitioned across cfg.Shards independent
// sub-clusters. newSource must return shard i's job stream — typically
// Strided(src, i, cfg.Shards) over an independent source instance per shard,
// which walks the whole trace but builds only the jobs shard i keeps when the
// source can Skip — and newPolicy a fresh scheduler per shard. Per-shard
// results are folded in shard-index order into one StreamResult (Makespan is
// the max across shards, Utilization is total delivered service over total
// capacity across the global makespan).
func RunSharded(newSource func(shard int) (Source, error), newPolicy func() (sched.Scheduler, error), cfg ShardedConfig) (*StreamResult, error) {
	if newSource == nil || newPolicy == nil {
		return nil, errors.New("fluid: nil source or policy constructor")
	}
	plan, err := substrate.PlanShards(cfg.Shards, cfg.Workers, cfg.Probe != nil)
	if err != nil {
		return nil, fmt.Errorf("fluid: %w", err)
	}
	if err := cfg.Config.validate(); err != nil {
		return nil, err
	}

	shardCfg := cfg.Config
	shardCfg.Capacity = cfg.Capacity / float64(plan.Shards)

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
		return RunStream(src, policy, scfg, nil)
	})
	if err != nil {
		return nil, fmt.Errorf("fluid: %w", err)
	}

	// Fold in shard-index order: deterministic float summation.
	out := &StreamResult{}
	for shard, r := range results {
		if shard == 0 {
			out.Scheduler = r.Scheduler
		}
		out.Jobs += r.Jobs
		out.Rounds += r.Rounds
		out.SumResponse += r.SumResponse
		out.SumSlowdown += r.SumSlowdown
		out.Delivered += r.Delivered
		if r.Makespan > out.Makespan {
			out.Makespan = r.Makespan
		}
		out.Slab.Live += r.Slab.Live
		out.Slab.Peak += r.Slab.Peak
		out.Slab.Recycled += r.Slab.Recycled
	}
	if out.Makespan > 0 {
		out.Utilization = out.Delivered / (out.Makespan * cfg.Capacity)
	}
	return out, nil
}
