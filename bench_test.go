// Benchmarks regenerating every table and figure of the paper's evaluation
// (run with `go test -bench=. -benchmem`). Each figure bench executes the
// corresponding experiment and reports the paper's headline numbers as
// custom metrics (normalized average job response time versus Fair, denoted
// normX), so the series the paper plots appear directly in the benchmark
// output. Full paper-scale runs are available via cmd/lasmq-bench; the
// heaviest traces are scaled down here to keep `go test -bench` interactive,
// without changing who wins or by roughly what factor.
//
// Ablation benches beyond the paper cover the design choices DESIGN.md calls
// out: cross-queue weights, stage awareness, in-queue ordering, speculative
// execution, and SJF's sensitivity to size-estimate error.
package lasmq_test

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"lasmq"
	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/experiments"
	"lasmq/internal/fluid"
	"lasmq/internal/geo"
	"lasmq/internal/mapreduce"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
	"lasmq/internal/stats"
	"lasmq/internal/trace"
	"lasmq/internal/workload"
)

// benchOpts is the reduced-but-faithful scale used by the figure benches.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Repeats: 1, TraceJobs: 6000, UniformJobs: 1500}
}

// BenchmarkFig1Motivation regenerates Fig. 1: LAS vs. a 2-level queue on
// jobs A, B, C (sizes 4, 4, 1). Reported metrics are job A's response time
// under each policy (paper: 9 vs. 6).
func BenchmarkFig1Motivation(b *testing.B) {
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LAS["A"], "respA_LAS")
	b.ReportMetric(last.LASMQ["A"], "respA_MQ")
}

// BenchmarkFig3Ablation regenerates Fig. 3: the four design-option cases,
// normalized over Fair (50-second interval).
func BenchmarkFig3Ablation(b *testing.B) {
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Cases[0], "case1")
	b.ReportMetric(last.Cases[1], "case2")
	b.ReportMetric(last.Cases[2], "case3")
	b.ReportMetric(last.Cases[3], "case4")
}

func benchCluster(b *testing.B, run func(experiments.Options) (*experiments.ClusterResult, error)) {
	b.Helper()
	var last *experiments.ClusterResult
	for i := 0; i < b.N; i++ {
		res, err := run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, name := range experiments.PolicyOrder {
		b.ReportMetric(last.Normalized[name], "norm"+name)
	}
}

// BenchmarkFig5Cluster regenerates Fig. 5: the Table I workload at the
// 80-second mean arrival interval (paper: LAS_MQ cuts Fair's mean response
// by ~40%, FIFO worst).
func BenchmarkFig5Cluster(b *testing.B) { benchCluster(b, experiments.Fig5) }

// BenchmarkFig6Cluster regenerates Fig. 6: the 50-second interval (higher
// load; paper: ~45% reduction, gaps widen).
func BenchmarkFig6Cluster(b *testing.B) { benchCluster(b, experiments.Fig6) }

func benchTrace(b *testing.B, run func(experiments.Options) (*experiments.TraceResult, error)) {
	b.Helper()
	var last *experiments.TraceResult
	for i := 0; i < b.N; i++ {
		res, err := run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, name := range experiments.PolicyOrder {
		b.ReportMetric(last.Normalized[name], "norm"+name)
	}
}

// BenchmarkFig7Heavy regenerates Fig. 7a: the heavy-tailed Facebook-like
// trace (paper: LAS 17.4 < LAS_MQ 19.4 < FAIR 27.7 << FIFO 1933.9).
func BenchmarkFig7Heavy(b *testing.B) { benchTrace(b, experiments.Fig7HeavyTailed) }

// BenchmarkFig7Uniform regenerates Fig. 7b: 10,000 identical jobs (paper:
// LAS_MQ ~ FIFO ~ 5e7, FAIR ~ LAS ~ 1e8; scaled down here).
func BenchmarkFig7Uniform(b *testing.B) { benchTrace(b, experiments.Fig7Uniform) }

// scaleEnvInt applies an optional positive-int env override to a scale knob.
func scaleEnvInt(b *testing.B, key string, set func(int)) {
	b.Helper()
	env := os.Getenv(key)
	if env == "" {
		return
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		b.Fatalf("bad %s %q", key, env)
	}
	set(n)
}

// benchScaleTier runs one scale-tier preset of the experiment catalog per
// iteration while a background sampler reads the heap every 5ms, then
// reports the high-water mark as peak-heap-bytes and the per-run wall time as
// wall_clock_s (ns/op in human-readable seconds) alongside the usual
// normalized-response metrics. These are for looking at one tier's memory
// envelope; whether a change is faster or slower is benchmark/'s question.
// allocs/job and bytes/job are the iteration's heap objects and bytes per
// job-run (trace length × policies, sampler included — a few hundred objects
// a second), so tiers of different lengths compare: on a streamed tier they
// are what is left of per-run costs, and should fall as the trace grows.
//
// LASMQ_SCALE_JOBS, LASMQ_SCALE_SHARDS and LASMQ_SCALE_WORKERS override the
// trace length, shard count and shard worker pool of whichever tier runs (the
// race-enabled `make bench-smoke` runs every tier small, K=4, with a real
// 4-worker pool).
func benchScaleTier(b *testing.B, preset string) {
	b.Helper()
	rows, err := experiments.Select(preset)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Seed: 1, Repeats: 1}
	scaleEnvInt(b, "LASMQ_SCALE_JOBS", func(n int) { opts.ScaleJobs = n })
	scaleEnvInt(b, "LASMQ_SCALE_SHARDS", func(n int) { opts.Shards = n })
	scaleEnvInt(b, "LASMQ_SCALE_WORKERS", func(n int) { opts.ShardWorkers = n })
	var peak uint64
	var elapsed time.Duration
	var last *experiments.TraceResult
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		stop := make(chan struct{})
		sampled := make(chan uint64, 1)
		go func() {
			var high uint64
			var ms runtime.MemStats
			for {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > high {
					high = ms.HeapAlloc
				}
				select {
				case <-stop:
					sampled <- high
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
		}()
		start := time.Now()
		res, err := rows[0].Run(opts)
		elapsed += time.Since(start)
		close(stop)
		if high := <-sampled; high > peak {
			peak = high
		}
		if err != nil {
			b.Fatal(err)
		}
		last = res.(*experiments.TraceResult)
	}
	runtime.ReadMemStats(&after)
	jobRuns := float64(b.N * last.Jobs * len(experiments.PolicyOrder))
	b.ReportMetric(float64(peak), "peak-heap-bytes")
	b.ReportMetric(elapsed.Seconds()/float64(b.N), "wall_clock_s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/jobRuns, "allocs/job")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/jobRuns, "bytes/job")
	for _, name := range experiments.PolicyOrder {
		b.ReportMetric(last.Normalized[name], "norm"+name)
	}
}

// BenchmarkScale100k runs the unsharded scale tier: the heavy-tailed trace at
// 100,000 jobs (~4x the paper's), materialized, under all four policies.
// Beyond ns/op and allocs, peak-heap-bytes tracks the memory envelope of the
// ladder event queue and slab state at scale.
func BenchmarkScale100k(b *testing.B) { benchScaleTier(b, "scale-100k") }

// BenchmarkScale1M runs the millions-of-jobs tier: the heavy-tailed trace
// streamed at 1,000,000 jobs over 8 independent 20-container shards (load
// 0.9 each) under all four policies. The trace is never materialized and
// completed job records are recycled through a free list, so peak-heap-bytes
// tracks live jobs, not trace length.
func BenchmarkScale1M(b *testing.B) { benchScaleTier(b, "scale-1m") }

// BenchmarkScale10M runs the ten-million-job tier: scale-1m's sharded
// streaming machinery with the trace length turned up 10x. Because the trace
// is generated on the fly and completed job records recycle through the free
// list, peak-heap-bytes should stay in scale-1m's neighbourhood even though
// the stream is an order of magnitude longer — the streaming contract this
// benchmark shows.
func BenchmarkScale10M(b *testing.B) { benchScaleTier(b, "scale-10m") }

// BenchmarkScale1MEngineSharded runs scale-1m on the task-level engine: the
// streamed trace staged into map→reduce jobs on the fly and simulated task
// by task — chaos failures, stragglers and speculation on — across 8
// independent 20-container sub-clusters via engine.RunSharded.
func BenchmarkScale1MEngineSharded(b *testing.B) { benchScaleTier(b, "scale-1m-engine") }

// BenchmarkScale10MEngineSharded is the flagship engine scale-out tier: ten
// million streamed jobs staged and simulated task by task across 8 sharded
// sub-clusters (engine.RunSharded), with per-shard-deterministic chaos. On a
// multi-core runner, wall_clock_s drops roughly with the worker count
// (Workers is execution-only: results are DeepEqual for any value);
// peak-heap-bytes stays bounded by live jobs, not trace length.
func BenchmarkScale10MEngineSharded(b *testing.B) { benchScaleTier(b, "scale-10m-engine") }

// BenchmarkFig8Queues regenerates Fig. 8a: the number-of-queues sweep
// (paper: beats Fair from k = 5 on).
func BenchmarkFig8Queues(b *testing.B) {
	var last *experiments.Fig8QueuesResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8Queues(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, k := range []int{1, 2, 4, 5, 10} {
		b.ReportMetric(last.Normalized[k], "k"+itoa(k))
	}
}

// BenchmarkFig8Thresholds regenerates Fig. 8b: the first-threshold sweep.
func BenchmarkFig8Thresholds(b *testing.B) {
	var last *experiments.Fig8ThresholdsResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8Thresholds(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Normalized[0.001], "alpha0.001")
	b.ReportMetric(last.Normalized[1], "alpha1")
	b.ReportMetric(last.Normalized[10], "alpha10")
}

// BenchmarkTableIWorkload regenerates Table I's workload (the generator
// itself): 100 jobs, ~25k tasks.
func BenchmarkTableIWorkload(b *testing.B) {
	cfg := workload.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationQueueWeights sweeps the cross-queue weight decay — the
// parameter the paper leaves unspecified (DESIGN.md).
func BenchmarkAblationQueueWeights(b *testing.B) {
	var last map[float64]float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationWeights(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last[1], "decay1")
	b.ReportMetric(last[2], "decay2")
	b.ReportMetric(last[8], "decay8")
}

// BenchmarkAblationStageAwareness isolates stage awareness (Fig. 3 cases
// 3 vs. 4) at the higher load.
func BenchmarkAblationStageAwareness(b *testing.B) {
	benchLASMQVariant(b, func(on bool, c *core.Config) { c.StageAware = on })
}

// BenchmarkAblationOrdering isolates in-queue ordering (Fig. 3 cases
// 2 vs. 4).
func BenchmarkAblationOrdering(b *testing.B) {
	benchLASMQVariant(b, func(on bool, c *core.Config) { c.OrderByDemand = on })
}

func benchLASMQVariant(b *testing.B, set func(on bool, c *core.Config)) {
	b.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.MeanInterval = 50
	wcfg.Seed = 1
	specs, err := workload.Generate(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	var off, on float64
	for i := 0; i < b.N; i++ {
		for _, enabled := range []bool{false, true} {
			cfg := core.DefaultConfig()
			set(enabled, &cfg)
			mq, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := engine.Run(specs, mq, engine.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if enabled {
				on = res.MeanResponseTime()
			} else {
				off = res.MeanResponseTime()
			}
		}
	}
	b.ReportMetric(off, "meanRespOff")
	b.ReportMetric(on, "meanRespOn")
}

// BenchmarkMotivationSJFError regenerates the introduction's argument: SJF
// degrades with size-estimate error while LAS_MQ needs none.
func BenchmarkMotivationSJFError(b *testing.B) {
	var last *experiments.SJFErrorResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.MotivationSJFError(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Oracle, "sjfOracle")
	b.ReportMetric(last.SJF[10], "sjfErrX10")
	b.ReportMetric(last.SJF[100], "sjfErrX100")
	b.ReportMetric(last.LASMQ, "lasmq")
}

// BenchmarkSpeculation measures speculative execution against stragglers
// (the paper's work-conservation remark).
func BenchmarkSpeculation(b *testing.B) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 1
	specs, err := workload.Generate(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		for _, speculate := range []bool{false, true} {
			cfg := engine.DefaultConfig()
			cfg.StragglerProb = 0.05
			cfg.StragglerFactor = 8
			cfg.Speculation = speculate
			cfg.Seed = 1
			mq, err := core.New(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			res, err := engine.Run(specs, mq, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if speculate {
				with = res.MeanResponseTime()
			} else {
				without = res.MeanResponseTime()
			}
		}
	}
	b.ReportMetric(without, "meanRespNoSpec")
	b.ReportMetric(with, "meanRespSpec")
}

// BenchmarkAdaptiveThresholds compares the fixed ladder, a misconfigured
// fixed ladder, and the adaptive variant (the paper's future-work item 1) on
// the heavy-tailed trace.
func BenchmarkAdaptiveThresholds(b *testing.B) {
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = 6000
	tcfg.Seed = 1
	specs, err := trace.Facebook(tcfg)
	if err != nil {
		b.Fatal(err)
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity

	run := func(policy sched.Scheduler) float64 {
		res, err := fluid.Run(specs, policy, fcfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.MeanResponseTime()
	}
	var good, bad, adaptive float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 1
		cfg.StageAware = false
		cfg.OrderByDemand = false
		mq, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		good = run(mq)

		cfg.FirstThreshold = 1e-6
		cfg.Step = 2
		mis, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bad = run(mis)

		acfg := core.DefaultAdaptiveConfig()
		acfg.StageAware = false
		acfg.OrderByDemand = false
		acfg.InitialThreshold = 1e-6
		acfg.InitialStep = 2
		ad, err := core.NewAdaptive(acfg)
		if err != nil {
			b.Fatal(err)
		}
		adaptive = run(ad)
	}
	b.ReportMetric(good, "meanRespTuned")
	b.ReportMetric(bad, "meanRespMistuned")
	b.ReportMetric(adaptive, "meanRespAdaptive")
}

// BenchmarkFairnessTradeoff sweeps the blend parameter theta between LAS_MQ
// (theta = 0) and Fair (theta = 1) on the Table I workload, reporting mean
// response and p99 slowdown-proxy (p99 response) at each point — the
// paper's future-work item 2.
func BenchmarkFairnessTradeoff(b *testing.B) {
	wcfg := workload.DefaultConfig()
	wcfg.MeanInterval = 50
	wcfg.Seed = 1
	specs, err := workload.Generate(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	type point struct{ mean, p99 float64 }
	var results map[float64]point
	thetas := []float64{0, 0.25, 0.5, 1}
	for i := 0; i < b.N; i++ {
		results = make(map[float64]point, len(thetas))
		for _, theta := range thetas {
			mq, err := core.New(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			blend, err := sched.NewBlend(mq, sched.NewFair(), theta)
			if err != nil {
				b.Fatal(err)
			}
			res, err := engine.Run(specs, blend, engine.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			results[theta] = point{
				mean: res.MeanResponseTime(),
				p99:  stats.Percentile(res.ResponseTimes(), 0.99),
			}
		}
	}
	b.ReportMetric(results[0].mean, "meanTheta0")
	b.ReportMetric(results[0.5].mean, "meanTheta0.5")
	b.ReportMetric(results[1].mean, "meanTheta1")
	b.ReportMetric(results[0].p99, "p99Theta0")
	b.ReportMetric(results[0.5].p99, "p99Theta0.5")
	b.ReportMetric(results[1].p99, "p99Theta1")
}

// BenchmarkGeoScheduling measures the geo-distributed extension (the paper's
// future-work item 3): mean response under FIFO/Fair/LAS_MQ with
// locality-aware placement, plus Fair with blind placement, on a 3-site
// deployment with slow variable WAN links.
func BenchmarkGeoScheduling(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	var specs []geo.JobSpec
	arrival := 0.0
	for i := 1; i <= 30; i++ {
		arrival += r.ExpFloat64() * 8
		n, compute := 12, 3.0
		if i%5 == 0 {
			n, compute = 400, 5.0
		}
		tasks := make([]geo.TaskSpec, n)
		for t := range tasks {
			tasks[t] = geo.TaskSpec{Compute: compute, DataSite: t % 3, DataSize: 2}
		}
		specs = append(specs, geo.JobSpec{ID: i, Arrival: arrival, Priority: 1, Tasks: tasks})
	}
	cfg := geo.DefaultConfig()
	cfg.SiteContainers = []int{6, 6, 6}

	var fair, fifo, mqMean, blind float64
	for i := 0; i < b.N; i++ {
		run := func(p sched.Scheduler, placement geo.PlacementPolicy) float64 {
			c := cfg
			c.Placement = placement
			res, err := geo.Run(specs, p, c)
			if err != nil {
				b.Fatal(err)
			}
			return res.MeanResponseTime()
		}
		fair = run(sched.NewFair(), geo.PlaceLocalityAware)
		fifo = run(sched.NewFIFO(), geo.PlaceLocalityAware)
		mqCfg := core.DefaultConfig()
		mqCfg.FirstThreshold = 10
		mq, err := core.New(mqCfg)
		if err != nil {
			b.Fatal(err)
		}
		mqMean = run(mq, geo.PlaceLocalityAware)
		blind = run(sched.NewFair(), geo.PlaceBlind)
	}
	b.ReportMetric(mqMean, "meanLASMQ")
	b.ReportMetric(fair, "meanFAIR")
	b.ReportMetric(fifo, "meanFIFO")
	b.ReportMetric(blind, "meanFairBlind")
}

// --- Micro-benchmarks of the hot paths ---

func fakeJobs(n int) []sched.JobView {
	jobs := make([]sched.JobView, n)
	for i := range jobs {
		jobs[i] = &schedtest.FakeJob{
			JobID:        i + 1,
			JobSeq:       i + 1,
			JobPriority:  i%5 + 1,
			AttainedVal:  float64(i * 37 % 1000),
			EstimatedVal: float64(i * 53 % 2000),
			ReadyVal:     float64(i%40 + 1),
			RemainingVal: float64(i%300 + 1),
		}
	}
	return jobs
}

// BenchmarkLASMQAssign measures one LAS_MQ scheduling round over 1,000 jobs.
func BenchmarkLASMQAssign(b *testing.B) {
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	jobs := fakeJobs(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mq.Assign(float64(i), 120, jobs)
	}
}

// BenchmarkFairAssign measures one Fair water-filling round over 1,000 jobs.
func BenchmarkFairAssign(b *testing.B) {
	fair := sched.NewFair()
	jobs := fakeJobs(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fair.Assign(float64(i), 120, jobs)
	}
}

// BenchmarkLASAssign measures one LAS round over 1,000 jobs.
func BenchmarkLASAssign(b *testing.B) {
	las := sched.NewLAS()
	jobs := fakeJobs(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		las.Assign(float64(i), 120, jobs)
	}
}

// BenchmarkClusterEngine measures a full 100-job cluster simulation
// (~25k task events) under LAS_MQ.
func BenchmarkClusterEngine(b *testing.B) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 1
	specs, err := workload.Generate(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mq, err := core.New(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Run(specs, mq, engine.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidEngine measures a 6,000-job heavy-tailed fluid simulation
// under LAS_MQ.
func BenchmarkFluidEngine(b *testing.B) {
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = 6000
	tcfg.Seed = 1
	specs, err := trace.Facebook(tcfg)
	if err != nil {
		b.Fatal(err)
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 1
		cfg.StageAware = false
		cfg.OrderByDemand = false
		mq, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fluid.Run(specs, mq, fcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPIQuickstart exercises the façade end to end.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	specs, err := lasmq.GenerateWorkload(lasmq.DefaultWorkloadConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		mq, err := lasmq.NewScheduler(lasmq.DefaultSchedulerConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lasmq.RunCluster(specs, mq, lasmq.DefaultClusterConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkMapReduceWordCount runs a real word-count MapReduce job (24
// splits x 1000 words) on the live mini-YARN cluster under LAS_MQ and
// reports wall time per complete job.
func BenchmarkMapReduceWordCount(b *testing.B) {
	splits := mapreduce.SynthesizeText(24, 1000, 60, 1)
	for i := 0; i < b.N; i++ {
		mq, err := core.New(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := mapreduce.Run(mapreduce.DefaultClusterConfig(), mq, []mapreduce.Job{{
			ID: 1, Name: "wordcount", Priority: 1,
			Splits: splits, Reducers: 4,
			Map: mapreduce.WordCountMap, Reduce: mapreduce.WordCountReduce,
		}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outputs[1]) == 0 {
			b.Fatal("empty output")
		}
	}
}
