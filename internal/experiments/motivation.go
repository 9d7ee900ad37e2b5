package experiments

import (
	"fmt"
	"strings"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/runner"
	"lasmq/internal/sched"
	"lasmq/internal/stats"
	"lasmq/internal/workload"
)

// Fig1Result holds the motivating example's per-job response times.
type Fig1Result struct {
	// LAS and LASMQ map job name (A, B, C) to response time under plain LAS
	// and under the 2-level multilevel queue.
	LAS   map[string]float64
	LASMQ map[string]float64
}

// Fig1 reproduces the paper's motivating example (Fig. 1): jobs A, B, C of
// sizes 4, 4, 1 arriving at t = 0, 1, 2 on a unit-capacity cluster. Under
// LAS, A and B degenerate to processor sharing and A finishes at t = 9; a
// 2-level queue (threshold 1, strict priority) serves them one by one and
// cuts A's response time to 6 while B and C are unaffected.
func Fig1() (*Fig1Result, error) {
	specs := []fluid.JobSpec{
		{ID: 1, Arrival: 0, Size: 4, Width: 1, Priority: 1},
		{ID: 2, Arrival: 1, Size: 4, Width: 1, Priority: 1},
		{ID: 3, Arrival: 2, Size: 1, Width: 1, Priority: 1},
	}
	names := map[int]string{1: "A", 2: "B", 3: "C"}
	cfg := fluid.Config{Capacity: 1, TaskDuration: 1}

	lasRun, err := fluid.Run(specs, sched.NewLAS(), cfg)
	if err != nil {
		return nil, err
	}
	mqCfg := core.DefaultConfig()
	mqCfg.Queues = 2
	mqCfg.FirstThreshold = 1
	mqCfg.QueueWeightDecay = 1e9 // Fig. 1 assumes strict inter-queue priority
	mq, err := core.New(mqCfg)
	if err != nil {
		return nil, err
	}
	mqRun, err := fluid.Run(specs, mq, cfg)
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{
		LAS:   make(map[string]float64, 3),
		LASMQ: make(map[string]float64, 3),
	}
	for _, jr := range lasRun.Jobs {
		res.LAS[names[jr.ID]] = jr.ResponseTime
	}
	for _, jr := range mqRun.Jobs {
		res.LASMQ[names[jr.ID]] = jr.ResponseTime
	}
	return res, nil
}

// Table renders Fig. 1.
func (r *Fig1Result) Table() string {
	header := []string{"job", "LAS response", "LAS+2 queues response"}
	var rows [][]string
	for _, name := range []string{"A", "B", "C"} {
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2f", r.LAS[name]),
			fmt.Sprintf("%.2f", r.LASMQ[name]),
		})
	}
	return runner.RenderTable(header, rows)
}

// Cells reports each job's response time under both policies.
func (r *Fig1Result) Cells() []runner.Cell {
	var cells []runner.Cell
	for _, job := range []string{"A", "B", "C"} {
		cells = append(cells,
			runner.Cell{Group: job, Key: "las", Value: r.LAS[job]},
			runner.Cell{Group: job, Key: "lasmq", Value: r.LASMQ[job]})
	}
	return cells
}

// SJFErrorResult reports the size-estimate-error sweep motivating the paper:
// SJF with misestimated sizes versus the estimate-free LAS_MQ.
type SJFErrorResult struct {
	// SJF maps the estimate error factor to SJF's mean response time; the
	// job-size hints are perturbed by factor^u, u uniform in [-1, 1].
	SJF map[float64]float64
	// LASMQ is LAS_MQ's mean response time on the same workload (no
	// estimates needed, so it is a single value).
	LASMQ float64
	// Oracle is SJF's mean with perfect size information.
	Oracle float64
}

// MotivationSJFError quantifies the introduction's argument: size-based
// policies degrade as estimates degrade, while LAS_MQ needs none. It runs
// the Table I workload at the 50-second interval with SJF under increasing
// size-estimate error.
func MotivationSJFError(opts Options) (*SJFErrorResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	res := &SJFErrorResult{SJF: make(map[float64]float64)}
	factors := []float64{1, 2, 5, 10, 100}

	reps := opts.Repeats
	var lasmqSum, oracleSum float64
	sums := make(map[float64]float64, len(factors))
	for rep := 0; rep < reps; rep++ {
		seed := opts.Seed + int64(rep)
		// Exact-size workload for the oracle and LAS_MQ runs.
		wcfg := workload.DefaultConfig()
		wcfg.MeanInterval = 50
		wcfg.Seed = seed
		exact, err := workload.Generate(wcfg)
		if err != nil {
			return nil, err
		}
		mq, err := core.New(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		mqRun, err := engine.Run(exact, mq, opts.engineConfig())
		if err != nil {
			return nil, err
		}
		lasmqSum += mqRun.MeanResponseTime()

		oracleRun, err := engine.Run(exact, sched.NewSJF(), opts.engineConfig())
		if err != nil {
			return nil, err
		}
		oracleSum += oracleRun.MeanResponseTime()

		for _, f := range factors {
			wcfg.SizeErrorFactor = f
			specs, err := workload.Generate(wcfg)
			if err != nil {
				return nil, err
			}
			run, err := engine.Run(specs, sched.NewSJF(), opts.engineConfig())
			if err != nil {
				return nil, err
			}
			sums[f] += run.MeanResponseTime()
		}
	}
	res.LASMQ = lasmqSum / float64(reps)
	res.Oracle = oracleSum / float64(reps)
	for _, f := range factors {
		res.SJF[f] = sums[f] / float64(reps)
	}
	return res, nil
}

// Table renders the estimate-error sweep.
func (r *SJFErrorResult) Table() string {
	header := []string{"policy", "estimate error", "mean response"}
	rows := [][]string{
		{"SJF (oracle)", "none", fmt.Sprintf("%.0f", r.Oracle)},
	}
	for _, f := range sortedKeys(r.SJF) {
		rows = append(rows, []string{"SJF", fmt.Sprintf("x%g", f), fmt.Sprintf("%.0f", r.SJF[f])})
	}
	rows = append(rows, []string{"LAS_MQ", "not needed", fmt.Sprintf("%.0f", r.LASMQ)})
	return runner.RenderTable(header, rows)
}

// Cells reports the oracle, LAS_MQ and per-error-factor SJF means.
func (r *SJFErrorResult) Cells() []runner.Cell {
	cells := []runner.Cell{
		{Group: "SJF-oracle", Key: "mean", Value: r.Oracle},
		{Group: "LAS_MQ", Key: "mean", Value: r.LASMQ},
	}
	for _, f := range sortedKeys(r.SJF) {
		cells = append(cells, runner.Cell{Group: fmt.Sprintf("SJF-x%g", f), Key: "mean", Value: r.SJF[f]})
	}
	return cells
}

// WeightsResult maps the cross-queue weight decay to LAS_MQ's response time
// normalized over Fair.
type WeightsResult map[float64]float64

// AblationWeights sweeps the cross-queue weight decay (a parameter the paper
// leaves unspecified) on the Table I workload, normalized over Fair.
func AblationWeights(opts Options) (WeightsResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	res := make(WeightsResult)
	for rep := 0; rep < opts.Repeats; rep++ {
		wcfg := workload.DefaultConfig()
		wcfg.MeanInterval = 50
		wcfg.Seed = opts.Seed + int64(rep)
		specs, err := workload.Generate(wcfg)
		if err != nil {
			return nil, err
		}
		fairRun, err := engine.Run(specs, sched.NewFair(), opts.engineConfig())
		if err != nil {
			return nil, err
		}
		for _, decay := range []float64{1, 1.5, 2, 4, 8} {
			cfg := core.DefaultConfig()
			cfg.QueueWeightDecay = decay
			mq, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			run, err := engine.Run(specs, mq, opts.engineConfig())
			if err != nil {
				return nil, err
			}
			res[decay] += stats.Normalized(fairRun.MeanResponseTime(), run.MeanResponseTime())
		}
	}
	for k := range res {
		res[k] /= float64(opts.Repeats)
	}
	return res, nil
}

// Table renders the decay sweep in ascending decay order.
func (r WeightsResult) Table() string {
	var b strings.Builder
	for _, decay := range sortedKeys(r) {
		fmt.Fprintf(&b, "decay %-4g -> %.2f\n", decay, r[decay])
	}
	return b.String()
}

// Cells reports the normalized response time per decay.
func (r WeightsResult) Cells() []runner.Cell {
	var cells []runner.Cell
	for _, decay := range sortedKeys(r) {
		cells = append(cells, runner.Cell{Group: fmt.Sprintf("decay=%g", decay), Key: "norm", Value: r[decay]})
	}
	return cells
}
