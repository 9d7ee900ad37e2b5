package experiments

import (
	"fmt"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/runner"
	"lasmq/internal/sched"
	"lasmq/internal/stats"
	"lasmq/internal/trace"
)

// TraceResult reports a trace-driven simulation (Fig. 7 style).
type TraceResult struct {
	// Jobs is the trace length every policy ran (what per-job rates divide by).
	Jobs int
	// Mean is the average job response time per policy.
	Mean map[string]float64
	// Normalized is Fair's mean over each policy's mean.
	Normalized map[string]float64
	// Responses retains the per-job response times per policy. The
	// materialized-trace experiments (fig7a/fig7b/scale-100k) populate it for
	// percentile reporting; the streamed scale tiers leave it nil — retaining
	// tens of millions of samples would defeat their bounded-heap contract.
	Responses map[string][]float64
	// Slowdowns per policy (only populated when keepDetail).
	Slowdowns map[string][]float64
}

// Fig7HeavyTailed runs the synthetic Facebook trace (24,443 jobs, load 0.9)
// under all four policies with the paper's simulation parameters (k = 10,
// alpha0 = 1, step = 10). Expected shape: LAS best, LAS_MQ close behind
// (~30% better than Fair), FIFO catastrophically worse.
func Fig7HeavyTailed(opts Options) (*TraceResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	specs, fcfg, err := facebookTrace(opts, opts.TraceJobs)
	if err != nil {
		return nil, err
	}
	return runTrace(specs, fcfg, traceLASMQConfig())
}

// Fig7Uniform runs the light-tailed workload (10,000 jobs of size 10,000 in
// a batch on a unit-capacity cluster). Expected shape: LAS_MQ and FIFO at
// about half the average response time of Fair and LAS, which both collapse
// to processor sharing.
func Fig7Uniform(opts Options) (*TraceResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	specs, err := trace.Uniform(opts.UniformJobs, 10000, opts.Seed)
	if err != nil {
		return nil, err
	}
	fcfg := fluid.Config{Capacity: 1, TaskDuration: 1, Probe: opts.Probe}
	return runTrace(specs, fcfg, traceLASMQConfig())
}

// facebookTrace materializes the heavy-tailed trace at the given length
// together with the fluid configuration it targets (the Fig. 7a system: 20
// containers at load 0.9).
func facebookTrace(opts Options, jobs int) ([]fluid.JobSpec, fluid.Config, error) {
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = jobs
	tcfg.Seed = opts.Seed
	specs, err := trace.Facebook(tcfg)
	if err != nil {
		return nil, fluid.Config{}, err
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity
	fcfg.Probe = opts.Probe
	return specs, fcfg, nil
}

// runTrace replays a materialized trace under the four policies, retaining
// per-job responses and slowdowns.
func runTrace(specs []fluid.JobSpec, fcfg fluid.Config, mq core.Config) (*TraceResult, error) {
	res := &TraceResult{
		Jobs:      len(specs),
		Mean:      make(map[string]float64, len(PolicyOrder)),
		Responses: make(map[string][]float64, len(PolicyOrder)),
		Slowdowns: make(map[string][]float64, len(PolicyOrder)),
	}
	for _, name := range PolicyOrder {
		policy, err := core.NewPolicy(name, mq)
		if err != nil {
			return nil, err
		}
		run, err := fluid.Run(specs, policy, fcfg)
		if err != nil {
			return nil, fmt.Errorf("trace sim %s: %w", name, err)
		}
		res.Mean[name] = run.MeanResponseTime()
		res.Responses[name] = run.ResponseTimes()
		res.Slowdowns[name] = run.Slowdowns()
	}
	res.Normalized = normalizedVsFair(res.Mean)
	return res, nil
}

// normalizedVsFair returns Fair's mean over each policy's mean.
func normalizedVsFair(mean map[string]float64) map[string]float64 {
	norm := make(map[string]float64, len(PolicyOrder))
	for _, name := range PolicyOrder {
		norm[name] = stats.Normalized(mean[PolicyFair], mean[name])
	}
	return norm
}

// Table renders mean response times per policy (Fig. 7 bars) with the
// response-time tail where per-job responses were retained ("-" in the
// streamed scale tiers, which keep means only).
func (r *TraceResult) Table() string {
	header := []string{"policy", "mean response", "norm(vs FAIR)", "p50", "p95", "p99"}
	var rows [][]string
	for _, name := range PolicyOrder {
		row := []string{
			name,
			fmt.Sprintf("%.4g", r.Mean[name]),
			fmt.Sprintf("%.2f", r.Normalized[name]),
		}
		if rs := r.Responses[name]; len(rs) > 0 {
			s := stats.Summarize(rs)
			row = append(row,
				fmt.Sprintf("%.4g", s.P50),
				fmt.Sprintf("%.4g", s.P95),
				fmt.Sprintf("%.4g", s.P99))
		} else {
			row = append(row, "-", "-", "-")
		}
		rows = append(rows, row)
	}
	return runner.RenderTable(header, rows)
}

// Cells flattens the result into metric cells. Response percentiles appear
// only where the experiment retained raw responses — the streamed scale tiers
// report means alone so their cell sets stay identical across retention
// policies.
func (r *TraceResult) Cells() []runner.Cell {
	var cells []runner.Cell
	for _, name := range PolicyOrder {
		cells = append(cells,
			runner.Cell{Group: name, Key: "mean", Value: r.Mean[name]},
			runner.Cell{Group: name, Key: "norm", Value: r.Normalized[name]})
		if rs := r.Responses[name]; len(rs) > 0 {
			cells = append(cells, tailCells(name, rs)...)
		}
	}
	return cells
}

// Fig8QueuesResult maps number of queues to normalized response time.
type Fig8QueuesResult struct {
	// Normalized maps k (number of queues) to Fair's mean over LAS_MQ's.
	Normalized map[int]float64
}

// Fig8Queues sweeps the number of queues k over {1, 2, 4, 5, 10} on the
// heavy-tailed trace with alpha0 = 1, step = 10 (paper Fig. 8a). Expected
// shape: improves with k and beats Fair from k = 5 on.
func Fig8Queues(opts Options) (*Fig8QueuesResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	specs, fcfg, fairMean, err := fig8Setup(opts)
	if err != nil {
		return nil, err
	}
	res := &Fig8QueuesResult{Normalized: make(map[int]float64)}
	for _, k := range []int{1, 2, 4, 5, 10} {
		cfg := traceLASMQConfig()
		cfg.Queues = k
		mean, err := runLASMQTrace(specs, fcfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		res.Normalized[k] = stats.Normalized(fairMean, mean)
	}
	return res, nil
}

// Table renders Fig. 8a.
func (r *Fig8QueuesResult) Table() string {
	header := []string{"queues", "norm. resp. time (vs FAIR)"}
	var rows [][]string
	for _, k := range sortedKeys(r.Normalized) {
		rows = append(rows, []string{fmt.Sprintf("%d", k), fmt.Sprintf("%.2f", r.Normalized[k])})
	}
	return runner.RenderTable(header, rows)
}

// Cells reports the sweep's normalized response time per queue count.
func (r *Fig8QueuesResult) Cells() []runner.Cell {
	var cells []runner.Cell
	for _, k := range sortedKeys(r.Normalized) {
		cells = append(cells, runner.Cell{Group: fmt.Sprintf("k=%d", k), Key: "norm", Value: r.Normalized[k]})
	}
	return cells
}

// Fig8ThresholdsResult maps the first queue's threshold to normalized
// response time.
type Fig8ThresholdsResult struct {
	// Normalized maps alpha0 to Fair's mean over LAS_MQ's.
	Normalized map[float64]float64
}

// Fig8Thresholds sweeps the first threshold alpha0 over {0.001, 0.01, 0.1,
// 1, 10} with k = 10, step = 10 (paper Fig. 8b). The paper's main message —
// performance is good and stable for a wide range of alpha0 — reproduces.
// Its sharp degradation at alpha0 = 10 does not: with weights normalized
// over non-empty queues, the first queue (which holds every job smaller
// than 10) receives ample capacity and never congests; see EXPERIMENTS.md.
func Fig8Thresholds(opts Options) (*Fig8ThresholdsResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	specs, fcfg, fairMean, err := fig8Setup(opts)
	if err != nil {
		return nil, err
	}
	res := &Fig8ThresholdsResult{Normalized: make(map[float64]float64)}
	for _, alpha := range []float64{0.001, 0.01, 0.1, 1, 10} {
		cfg := traceLASMQConfig()
		cfg.FirstThreshold = alpha
		mean, err := runLASMQTrace(specs, fcfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("alpha0=%v: %w", alpha, err)
		}
		res.Normalized[alpha] = stats.Normalized(fairMean, mean)
	}
	return res, nil
}

// Table renders Fig. 8b.
func (r *Fig8ThresholdsResult) Table() string {
	header := []string{"alpha0", "norm. resp. time (vs FAIR)"}
	var rows [][]string
	for _, alpha := range sortedKeys(r.Normalized) {
		rows = append(rows, []string{fmt.Sprintf("%g", alpha), fmt.Sprintf("%.2f", r.Normalized[alpha])})
	}
	return runner.RenderTable(header, rows)
}

// Cells reports the sweep's normalized response time per first threshold.
func (r *Fig8ThresholdsResult) Cells() []runner.Cell {
	var cells []runner.Cell
	for _, alpha := range sortedKeys(r.Normalized) {
		cells = append(cells, runner.Cell{Group: fmt.Sprintf("alpha0=%g", alpha), Key: "norm", Value: r.Normalized[alpha]})
	}
	return cells
}

func fig8Setup(opts Options) ([]fluid.JobSpec, fluid.Config, float64, error) {
	specs, fcfg, err := facebookTrace(opts, opts.TraceJobs)
	if err != nil {
		return nil, fluid.Config{}, 0, err
	}
	fairRun, err := fluid.Run(specs, sched.NewFair(), fcfg)
	if err != nil {
		return nil, fluid.Config{}, 0, err
	}
	return specs, fcfg, fairRun.MeanResponseTime(), nil
}

func runLASMQTrace(specs []fluid.JobSpec, fcfg fluid.Config, cfg core.Config) (float64, error) {
	mq, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	run, err := fluid.Run(specs, mq, fcfg)
	if err != nil {
		return 0, err
	}
	return run.MeanResponseTime(), nil
}
