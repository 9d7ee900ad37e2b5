package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
	"lasmq/internal/trace"
	"lasmq/internal/workload"
)

// policyOrder is the sweep order: one sweep is these four policies, each a
// fresh instance, over the same inputs.
var policyOrder = []string{"FIFO", "FAIR", "LAS", "LAS_MQ"}

// A workload is one named set of inputs. The sizes are constants of the
// benchmark (see README.md for why they are what they are): a later change is
// compared at the same sizes, never at its own.
type benchWorkload struct {
	name string
	why  string
	// jobs is the number of jobs in one policy run at full size.
	jobs int
	// capacity is the cluster's container count (per run, summed over
	// shards); the eventq and quantize replays use it as their pending-set
	// size and capacity.
	capacity int
	// isEngine selects which simulator's self time the traced pass reports;
	// staged says the trace source feeds a workload.NewStageSource.
	isEngine bool
	staged   bool
	// lasmq is LAS_MQ's configuration, which differs by workload exactly as it
	// does between the paper's testbed and trace experiments.
	lasmq core.Config
	// workers is the shard parallelism of the timed sweeps (1 for the
	// single-goroutine workloads).
	workers int
	// prepare builds the inputs for seed at the given size. It is timed as
	// part of set-up.
	prepare func(seed int64, jobs int) (*instance, error)
}

// newPolicy returns the factory of fresh name policies for this workload.
func (w *benchWorkload) newPolicy(name string) func() (sched.Scheduler, error) {
	return func() (sched.Scheduler, error) { return newPolicy(name, w.lasmq) }
}

// hooks is what the traced pass hands into a run so that it can time the
// layers from outside. The zero value is the untraced run.
type hooks struct {
	probe obs.Probe
	// flat wraps the trace-layer source, staged the workload-layer source
	// built on top of it; sourceSetup receives the constructor's duration.
	flat        func(substrate.Source) substrate.Source
	staged      func(engine.Source) engine.Source
	sourceSetup func(seconds float64)
	// fold, when set, makes the run fold every completed job into an
	// order-sensitive hash (digest.Order).
	fold bool
	// workers overrides the workload's shard parallelism when positive.
	workers int
}

// instance is a prepared workload: inputs generated, configs fixed.
type instance struct {
	jobs int
	// totalSize is the sum of the flat specs' sizes, the service a fluid run
	// must deliver (0 for engine workloads, whose chaos re-executes work).
	totalSize float64
	// generateS is the time the materialising generator took (engine-cluster).
	generateS float64
	run       func(newPol func() (sched.Scheduler, error), h hooks) (digest, error)
}

// digest is the simulated outcome of one policy run. Two runs of the same
// inputs must agree on every field bit for bit.
type digest struct {
	Jobs         int    `json:"jobs"`
	MeanResponse uint64 `json:"mean_response_bits"`
	Makespan     uint64 `json:"makespan_bits"`
	Attempts     int    `json:"attempts,omitempty"`
	Failures     int    `json:"failures,omitempty"`
	Speculative  int    `json:"speculative,omitempty"`
	// Order is the FNV-1a fold of (job ID, completion time bits) in
	// completion order; only runs made with hooks.fold fill it.
	Order uint64 `json:"order,omitempty"`
	// service is the total service delivered (fluid) for the conservation
	// check; it is not part of the pinned digest.
	service float64
	// rounds (fluid) and the job-record slab statistics (streamed runs) come
	// from the result too; the traced pass reports them.
	rounds       int
	slabPeak     int
	slabRecycled int
}

func (d digest) meanResponse() float64 { return math.Float64frombits(d.MeanResponse) }

// sameOutcome compares the fields every pass fills.
func (d digest) sameOutcome(o digest) bool {
	return d.Jobs == o.Jobs && d.MeanResponse == o.MeanResponse && d.Makespan == o.Makespan &&
		d.Attempts == o.Attempts && d.Failures == o.Failures && d.Speculative == o.Speculative
}

// orderFold is the order-sensitive FNV-1a fold of (job ID, completion time
// bits) behind digest.Order. A nil fold is folding switched off: it ignores
// jobs and sums to 0.
type orderFold struct{ h uint64 }

func newOrderFold(on bool) *orderFold {
	if !on {
		return nil
	}
	return &orderFold{14695981039346656037}
}

func (o *orderFold) add(id int, completed float64) {
	if o == nil {
		return
	}
	for _, v := range [2]uint64{uint64(id), math.Float64bits(completed)} {
		for i := 0; i < 8; i++ {
			o.h ^= v & 0xff
			o.h *= 1099511628211
			v >>= 8
		}
	}
}

func (o *orderFold) sum() uint64 {
	if o == nil {
		return 0
	}
	return o.h
}

// newPolicy returns a fresh scheduler.
func newPolicy(name string, mq core.Config) (sched.Scheduler, error) {
	switch name {
	case "FIFO":
		return sched.NewFIFO(), nil
	case "FAIR":
		return sched.NewFair(), nil
	case "LAS":
		return sched.NewLAS(), nil
	case "LAS_MQ":
		return core.New(mq)
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// traceLASMQ is the trace simulations' LAS_MQ (paper section V-C): first
// threshold 1 because trace sizes are normalised, and flat fluid jobs have
// neither stages nor task demand to order by.
func traceLASMQ() core.Config {
	cfg := core.DefaultConfig()
	cfg.FirstThreshold = 1
	cfg.StageAware = false
	cfg.OrderByDemand = false
	return cfg
}

// engineTraceLASMQ is LAS_MQ for staged trace jobs on the task engine: sizes
// are still normalised, but the jobs have real stage progress.
func engineTraceLASMQ() core.Config {
	cfg := core.DefaultConfig()
	cfg.FirstThreshold = 1
	return cfg
}

// chaosConfig is the engine scale tiers' configuration: 20-container
// sub-clusters, the paper's 30-job admission cap and light chaos, so the
// attempt, re-queue and kill paths run.
func chaosConfig(containers int, seed int64) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Containers = containers
	cfg.MaxRunningJobs = 30
	cfg.FailureProb = 0.01
	cfg.StragglerProb = 0.02
	cfg.StragglerFactor = 3
	cfg.Speculation = true
	cfg.Seed = seed
	return cfg
}

func facebookConfig(seed int64, jobs int, capacity float64) trace.FacebookConfig {
	cfg := trace.DefaultFacebookConfig()
	cfg.Jobs = jobs
	cfg.Seed = seed
	cfg.Capacity = capacity
	return cfg
}

// newFlatSource builds the Facebook-like generator, reporting its
// construction time (which includes the renormalisation pass) to the hooks.
func newFlatSource(cfg trace.FacebookConfig, h hooks) (substrate.Source, error) {
	t0 := time.Now()
	src, err := trace.NewFacebookSource(cfg)
	if err != nil {
		return nil, err
	}
	if h.sourceSetup != nil {
		h.sourceSetup(time.Since(t0).Seconds())
	}
	if h.flat != nil {
		src = h.flat(src)
	}
	return src, nil
}

func newStagedSource(flat substrate.Source, h hooks) (engine.Source, error) {
	src, err := workload.NewStageSource(flat, workload.DefaultStageConfig())
	if err != nil {
		return nil, err
	}
	if h.staged != nil {
		src = h.staged(src)
	}
	return src, nil
}

// flatTotals drains a fresh generator once: the job count and total size a
// run over it must reproduce.
func flatTotals(cfg trace.FacebookConfig) (jobs int, size float64, err error) {
	src, err := trace.NewFacebookSource(cfg)
	if err != nil {
		return 0, 0, err
	}
	for {
		spec, ok, err := src.Next()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return jobs, size, nil
		}
		jobs++
		size += spec.Size
	}
}

func fluidStreamDigest(res *fluid.StreamResult, order uint64) digest {
	return digest{
		Jobs:         res.Jobs,
		MeanResponse: math.Float64bits(res.MeanResponseTime()),
		Makespan:     math.Float64bits(res.Makespan),
		Order:        order,
		service:      res.Delivered,
		rounds:       res.Rounds,
		slabPeak:     res.Slab.Peak,
		slabRecycled: res.Slab.Recycled,
	}
}

func engineStreamDigest(res *engine.StreamResult, order uint64) digest {
	return digest{
		Jobs:         res.Jobs,
		MeanResponse: math.Float64bits(res.MeanResponseTime()),
		Makespan:     math.Float64bits(res.Makespan),
		Attempts:     res.Attempts,
		Failures:     res.Failures,
		Speculative:  res.Speculative,
		Order:        order,
		slabPeak:     res.Slab.Peak,
		slabRecycled: res.Slab.Recycled,
	}
}

// shardWorkers is the parallelism of the sharded workload's timed sweeps.
func shardWorkers() int { return min(2, runtime.NumCPU()) }

// The five workloads. Names are fixed: later issues cite them.
func workloads() []*benchWorkload {
	return []*benchWorkload{
		{
			name:     "fluid-heavy",
			why:      "Fig 7a stretched: streamed heavy-tailed trace through fluid.RunStream; many cheap rounds at few live views, time split between policy and fluid loop; per-job allocations and slab recycling show",
			jobs:     10000,
			capacity: 20,
			workers:  1,
			lasmq:    traceLASMQ(),
			prepare:  prepareFluidHeavy,
		},
		{
			name:     "fluid-uniform",
			why:      "Fig 7b: batch of equal jobs through materialised fluid.Run; every round sees thousands of live views, so wall is LAS_MQ AssignInto in the number of live jobs, which fluid-heavy bypasses",
			jobs:     900,
			capacity: 1,
			workers:  1,
			lasmq:    traceLASMQ(),
			prepare:  prepareFluidUniform,
		},
		{
			name:     "engine-stream",
			why:      "task engine on many tiny staged jobs with chaos via engine.RunStream: wall is mostly engine self time (event loop, views, quantize, launch), policy about a quarter; per-job allocations, record pools",
			jobs:     8000,
			capacity: 20,
			isEngine: true,
			staged:   true,
			workers:  1,
			lasmq:    engineTraceLASMQ(),
			prepare:  prepareEngineStream,
		},
		{
			name:     "engine-cluster",
			why:      "Figs 5-6 stretched: few long jobs of 100-800 tasks through materialised engine.Run, admission cap binding; same engine layer used for ready-task scans and 120-wide launches, not job churn",
			jobs:     200,
			capacity: 120,
			isEngine: true,
			workers:  1,
			lasmq:    core.DefaultConfig(),
			prepare:  prepareEngineCluster,
		},
		{
			name:     "engine-sharded",
			why:      "the only multi-goroutine workload: engine.RunSharded over 8 shards on min(2,NumCPU) workers; measures substrate.RunShards scaling and the 8-fold trace regeneration each shard does",
			jobs:     16000,
			capacity: 160,
			isEngine: true,
			staged:   true,
			workers:  shardWorkers(),
			lasmq:    engineTraceLASMQ(),
			prepare:  prepareEngineSharded,
		},
	}
}

func prepareFluidHeavy(seed int64, jobs int) (*instance, error) {
	tcfg := facebookConfig(seed, jobs, 20)
	n, size, err := flatTotals(tcfg)
	if err != nil {
		return nil, err
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity
	return &instance{
		jobs:      n,
		totalSize: size,
		run: func(newPol func() (sched.Scheduler, error), h hooks) (digest, error) {
			policy, err := newPol()
			if err != nil {
				return digest{}, err
			}
			src, err := newFlatSource(tcfg, h)
			if err != nil {
				return digest{}, err
			}
			cfg := fcfg
			cfg.Probe = h.probe
			order := newOrderFold(h.fold)
			var each func(fluid.JobResult)
			if order != nil {
				each = func(r fluid.JobResult) { order.add(r.ID, r.Completed) }
			}
			res, err := fluid.RunStream(src, policy, cfg, each)
			if err != nil {
				return digest{}, err
			}
			return fluidStreamDigest(res, order.sum()), nil
		},
	}, nil
}

func prepareFluidUniform(seed int64, jobs int) (*instance, error) {
	specs, err := trace.Uniform(jobs, 10000, seed)
	if err != nil {
		return nil, err
	}
	size := 0.0
	for _, s := range specs {
		size += s.Size
	}
	return &instance{
		jobs:      len(specs),
		totalSize: size,
		run: func(newPol func() (sched.Scheduler, error), h hooks) (digest, error) {
			policy, err := newPol()
			if err != nil {
				return digest{}, err
			}
			res, err := fluid.Run(specs, policy, fluid.Config{Capacity: 1, TaskDuration: 1, Probe: h.probe})
			if err != nil {
				return digest{}, err
			}
			order := newOrderFold(h.fold)
			for _, j := range res.Jobs {
				order.add(j.ID, j.Completed)
			}
			return digest{
				Jobs:         len(res.Jobs),
				MeanResponse: math.Float64bits(res.MeanResponseTime()),
				Makespan:     math.Float64bits(res.Makespan),
				Order:        order.sum(),
				// Capacity 1: utilization times makespan is the service delivered.
				service: res.Utilization * res.Makespan,
				rounds:  res.Rounds,
			}, nil
		},
	}, nil
}

func prepareEngineStream(seed int64, jobs int) (*instance, error) {
	tcfg := facebookConfig(seed, jobs, 20)
	n, _, err := flatTotals(tcfg)
	if err != nil {
		return nil, err
	}
	ecfg := chaosConfig(20, seed)
	return &instance{
		jobs: n,
		run: func(newPol func() (sched.Scheduler, error), h hooks) (digest, error) {
			policy, err := newPol()
			if err != nil {
				return digest{}, err
			}
			flat, err := newFlatSource(tcfg, h)
			if err != nil {
				return digest{}, err
			}
			src, err := newStagedSource(flat, h)
			if err != nil {
				return digest{}, err
			}
			cfg := ecfg
			cfg.Probe = h.probe
			order := newOrderFold(h.fold)
			var each func(engine.JobResult)
			if order != nil {
				each = func(r engine.JobResult) { order.add(r.ID, r.Completed) }
			}
			res, err := engine.RunStream(src, policy, cfg, each)
			if err != nil {
				return digest{}, err
			}
			return engineStreamDigest(res, order.sum()), nil
		},
	}, nil
}

// clusterMix multiplies every Table I count: 100 jobs per unit.
func clusterMix(jobs int) []workload.JobType {
	types := workload.TableI()
	scale := max(1, jobs/100)
	for i := range types {
		types[i].Count *= scale
	}
	return types
}

func prepareEngineCluster(seed int64, jobs int) (*instance, error) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = seed
	var specs []job.Spec
	var err error
	t0 := time.Now()
	if jobs >= 100 {
		specs, err = workload.GenerateMix(clusterMix(jobs), wcfg)
	} else {
		// Below one Table I unit (quick and warm-up sizes) keep the first jobs
		// of a single unit, so the mix still spans every bin.
		specs, err = workload.GenerateMix(workload.TableI(), wcfg)
		if err == nil {
			specs = specs[:jobs]
		}
	}
	if err != nil {
		return nil, err
	}
	generateS := time.Since(t0).Seconds()
	ecfg := engine.DefaultConfig()
	ecfg.Seed = seed
	return &instance{
		jobs:      len(specs),
		generateS: generateS,
		run: func(newPol func() (sched.Scheduler, error), h hooks) (digest, error) {
			policy, err := newPol()
			if err != nil {
				return digest{}, err
			}
			cfg := ecfg
			cfg.Probe = h.probe
			res, err := engine.Run(specs, policy, cfg)
			if err != nil {
				return digest{}, err
			}
			d := digest{
				Jobs:         len(res.Jobs),
				MeanResponse: math.Float64bits(res.MeanResponseTime()),
				Makespan:     math.Float64bits(res.Makespan),
			}
			order := newOrderFold(h.fold)
			for _, j := range res.Jobs {
				d.Attempts += j.Attempts
				d.Failures += j.Failures
				d.Speculative += j.Speculative
				order.add(j.ID, j.Completed)
			}
			d.Order = order.sum()
			return d, nil
		},
	}, nil
}

const shardCount = 8

func prepareEngineSharded(seed int64, jobs int) (*instance, error) {
	tcfg := facebookConfig(seed, jobs, 20*shardCount)
	n, _, err := flatTotals(tcfg)
	if err != nil {
		return nil, err
	}
	base := chaosConfig(20*shardCount, seed)
	return &instance{
		jobs: n,
		run: func(newPol func() (sched.Scheduler, error), h hooks) (digest, error) {
			cfg := engine.ShardedConfig{Config: base, Shards: shardCount, Workers: shardWorkers()}
			if h.workers > 0 {
				cfg.Workers = h.workers
			}
			cfg.Probe = h.probe
			newSource := func(shard int) (engine.Source, error) {
				flat, err := newFlatSource(tcfg, h)
				if err != nil {
					return nil, err
				}
				return newStagedSource(substrate.Strided[substrate.JobSpec](flat, shard, shardCount), h)
			}
			res, err := engine.RunSharded(newSource, newPol, cfg)
			if err != nil {
				return digest{}, err
			}
			return engineStreamDigest(res, 0), nil
		},
	}, nil
}
