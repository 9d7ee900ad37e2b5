package experiments

import (
	"fmt"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
	"lasmq/internal/trace"
	"lasmq/internal/workload"
)

// scaleTier parameterises the one scale experiment: the heavy-tailed
// Facebook trace, stretched well past the paper's 24,443 jobs, under all four
// policies. It is not a paper figure; it stresses the event queue, the
// slab-allocated job state and the incremental in-queue ordering at trace
// lengths the figure experiments never reach. The catalog's scale-* rows are
// presets over it, and the BenchmarkScale* functions report their runtime and
// peak heap.
type scaleTier struct {
	// jobs is the preset trace length; Options.ScaleJobs overrides it.
	jobs int
	// sharded streams the trace instead of materializing it: the cluster is
	// opts.Shards independent 20-container sub-clusters, each at load 0.9 and
	// each pulling its stride of a per-seed deterministic generator, advanced
	// concurrently by up to opts.ShardWorkers workers. Shards changes results
	// (and is fingerprinted); ShardWorkers never does. Peak heap is bounded by
	// the jobs live at once, not the trace length, which is what makes the
	// ten-million-job presets affordable — and why sharded tiers report means
	// only. Unsharded, the tier is Fig. 7a with a longer trace: one
	// materialized 20-container fluid run that retains per-job responses.
	sharded bool
	// engine runs a sharded tier on the task-level engine instead of the
	// fluid substrate: every flat trace job is converted on the fly into a
	// structured map→reduce job (workload.NewStageSource) and simulated task
	// by task — discrete attempts, chaos failures, stragglers and speculation
	// included. The fluid tiers answer "what does the policy do to the fluid
	// limit of this trace"; the engine tiers answer the same question where
	// attempt bookkeeping and chaos live, at a per-job cost an order of
	// magnitude higher — which is exactly why they shard.
	engine bool
}

// engineScaleConfig is the per-run engine configuration of the engine scale
// tiers: each of opts.Shards sub-clusters is a 20-container system with the
// paper's 30-job admission cap and light chaos (1% failures, 2% stragglers,
// speculation on), so the tier exercises the attempt/re-queue/kill paths the
// fluid substrate cannot.
func engineScaleConfig(opts Options) engine.ShardedConfig {
	cfg := opts.engineConfig()
	cfg.Containers = 20 * opts.Shards
	cfg.MaxRunningJobs = 30
	cfg.FailureProb = 0.01
	cfg.StragglerProb = 0.02
	cfg.StragglerFactor = 3
	cfg.Speculation = true
	cfg.Seed = opts.Seed
	return engine.ShardedConfig{Config: cfg, Shards: opts.Shards, Workers: opts.ShardWorkers}
}

// engineScaleLASMQConfig configures LAS_MQ for the engine scale tiers: trace
// job sizes are normalized (mean ~20 container-seconds), so the first
// demotion threshold drops to 1 as in the trace simulations; stage awareness
// and demand ordering stay on — unlike flat fluid jobs, engine jobs have real
// stage progress for the scheduler to see.
func engineScaleLASMQConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.FirstThreshold = 1
	return cfg
}

// run executes the tier at opts.
func (t scaleTier) run(opts Options) (*TraceResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	jobs := t.jobs
	if opts.ScaleJobs > 0 {
		jobs = opts.ScaleJobs
	}
	if !t.sharded {
		specs, fcfg, err := facebookTrace(opts, jobs)
		if err != nil {
			return nil, err
		}
		return runTrace(specs, fcfg, traceLASMQConfig())
	}

	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = jobs
	tcfg.Seed = opts.Seed
	// Global capacity scales with the shard count so every sub-cluster is
	// the Fig. 7a system: 20 containers at load 0.9.
	tcfg.Capacity = 20 * float64(opts.Shards)
	stride := func(shard int) (substrate.Source, error) {
		src, err := trace.NewFacebookSource(tcfg)
		if err != nil {
			return nil, err
		}
		return substrate.Strided(src, shard, opts.Shards), nil
	}
	staged := func(shard int) (engine.Source, error) {
		flat, err := stride(shard)
		if err != nil {
			return nil, err
		}
		return workload.NewStageSource(flat, workload.DefaultStageConfig())
	}
	fcfg := fluid.ShardedConfig{Config: fluid.DefaultConfig(), Shards: opts.Shards, Workers: opts.ShardWorkers}
	fcfg.Capacity = tcfg.Capacity
	fcfg.Probe = opts.Probe
	ecfg := engineScaleConfig(opts)
	mq := traceLASMQConfig()
	if t.engine {
		mq = engineScaleLASMQConfig()
	}

	mean := make(map[string]float64, len(PolicyOrder))
	for _, name := range PolicyOrder {
		newPolicy := func() (sched.Scheduler, error) { return core.NewPolicy(name, mq) }
		var run interface{ MeanResponseTime() float64 }
		var err error
		if t.engine {
			run, err = engine.RunSharded(staged, newPolicy, ecfg)
		} else {
			run, err = fluid.RunSharded(stride, newPolicy, fcfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		mean[name] = run.MeanResponseTime()
	}
	return &TraceResult{Jobs: jobs, Mean: mean, Normalized: normalizedVsFair(mean)}, nil
}
