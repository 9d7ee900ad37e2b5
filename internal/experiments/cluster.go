package experiments

import (
	"fmt"
	"strconv"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/runner"
	"lasmq/internal/sched"
	"lasmq/internal/stats"
	"lasmq/internal/workload"
)

// PolicyStats aggregates one policy's cluster-experiment outcome.
type PolicyStats struct {
	// MeanResponse is the average job response time in seconds.
	MeanResponse float64
	// BinMeans is the average response time per Table I input-size bin.
	BinMeans map[int]float64
	// BinResponses retains the per-job response times per bin (the samples
	// behind BinMeans), so CSVs can report per-bin tails, not just means.
	BinResponses map[int][]float64
	// Responses are the per-job response times (for CDFs), concatenated
	// across repeats.
	Responses []float64
	// Slowdowns are per-job slowdowns (response / isolated runtime).
	Slowdowns []float64
}

// ClusterResult holds a full Fig. 5 / Fig. 6 style experiment.
type ClusterResult struct {
	// MeanInterval is the Poisson mean inter-arrival time in seconds.
	MeanInterval float64
	// ByPolicy maps policy name to aggregated stats.
	ByPolicy map[string]*PolicyStats
	// Normalized is Fair's mean response divided by each policy's
	// (values > 1 beat Fair).
	Normalized map[string]float64
}

// Fig5 runs the 80-second mean-interval testbed experiment (paper Fig. 5):
// response-time CDF, per-bin averages, and slowdown for LAS_MQ, LAS, FAIR
// and FIFO.
func Fig5(opts Options) (*ClusterResult, error) {
	return RunCluster(80, opts)
}

// Fig6 runs the 50-second mean-interval (higher-load) experiment (Fig. 6).
func Fig6(opts Options) (*ClusterResult, error) {
	return RunCluster(50, opts)
}

// RunCluster runs the Table I workload at the given mean arrival interval
// under all four policies.
func RunCluster(meanInterval float64, opts Options) (*ClusterResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{
		MeanInterval: meanInterval,
		ByPolicy:     make(map[string]*PolicyStats, len(PolicyOrder)),
		Normalized:   make(map[string]float64, len(PolicyOrder)),
	}
	for _, name := range PolicyOrder {
		res.ByPolicy[name] = &PolicyStats{
			BinMeans:     make(map[int]float64),
			BinResponses: make(map[int][]float64),
		}
	}

	for rep := 0; rep < opts.Repeats; rep++ {
		wcfg := workload.DefaultConfig()
		wcfg.MeanInterval = meanInterval
		wcfg.Seed = opts.Seed + int64(rep)
		specs, err := workload.Generate(wcfg)
		if err != nil {
			return nil, err
		}
		isolated, err := isolatedRuntimes(specs, opts.engineConfig())
		if err != nil {
			return nil, err
		}
		for _, name := range PolicyOrder {
			policy, err := core.NewPolicy(name, core.DefaultConfig())
			if err != nil {
				return nil, err
			}
			run, err := engine.Run(specs, policy, opts.engineConfig())
			if err != nil {
				return nil, fmt.Errorf("%s at interval %v: %w", name, meanInterval, err)
			}
			ps := res.ByPolicy[name]
			for _, jr := range run.Jobs {
				ps.Responses = append(ps.Responses, jr.ResponseTime)
				ps.Slowdowns = append(ps.Slowdowns, jr.ResponseTime/isolated[jr.ID])
				ps.BinResponses[jr.Bin] = append(ps.BinResponses[jr.Bin], jr.ResponseTime)
			}
		}
	}

	for _, name := range PolicyOrder {
		ps := res.ByPolicy[name]
		ps.MeanResponse = stats.Mean(ps.Responses)
		for bin, rs := range ps.BinResponses { // range-ok: commutative fold
			ps.BinMeans[bin] = stats.Mean(rs)
		}
	}
	fair := res.ByPolicy[PolicyFair].MeanResponse
	for _, name := range PolicyOrder {
		res.Normalized[name] = stats.Normalized(fair, res.ByPolicy[name].MeanResponse)
	}
	return res, nil
}

// isolatedRuntimes computes each job's alone-on-the-cluster runtime, the
// slowdown denominator.
func isolatedRuntimes(specs []job.Spec, cfg engine.Config) (map[int]float64, error) {
	out := make(map[int]float64, len(specs))
	for i := range specs {
		iso, err := engine.RunIsolated(specs[i], sched.NewFIFO(), cfg)
		if err != nil {
			return nil, err
		}
		out[specs[i].ID] = iso
	}
	return out, nil
}

// Table renders the experiment like the paper's Fig. 5(b)/6(b) — average job
// response time per bin and overall, by policy — followed by the slowdown
// table of Fig. 5(c)/6(c).
func (r *ClusterResult) Table() string {
	header := []string{"policy", "bin1", "bin2", "bin3", "bin4", "all", "norm(vs FAIR)"}
	var rows [][]string
	for _, name := range PolicyOrder {
		ps := r.ByPolicy[name]
		row := []string{name}
		for bin := 1; bin <= 4; bin++ {
			row = append(row, fmt.Sprintf("%.0f", ps.BinMeans[bin]))
		}
		row = append(row,
			fmt.Sprintf("%.0f", ps.MeanResponse),
			fmt.Sprintf("%.2f", r.Normalized[name]))
		rows = append(rows, row)
	}
	return runner.RenderTable(header, rows) + "slowdowns:\n" + r.SlowdownTable()
}

// Cells flattens the experiment into metric cells: per-bin and overall
// means, the normalized ratio, and the response and slowdown tails.
func (r *ClusterResult) Cells() []runner.Cell {
	var cells []runner.Cell
	for _, name := range PolicyOrder {
		ps := r.ByPolicy[name]
		for bin := 1; bin <= 4; bin++ {
			cells = append(cells, runner.Cell{
				Group: name, Key: fmt.Sprintf("bin%d", bin), Value: ps.BinMeans[bin],
			})
		}
		s := stats.Summarize(ps.Slowdowns)
		cells = append(cells,
			runner.Cell{Group: name, Key: "all", Value: ps.MeanResponse},
			runner.Cell{Group: name, Key: "norm", Value: r.Normalized[name]})
		cells = append(cells, tailCells(name, ps.Responses)...)
		cells = append(cells,
			runner.Cell{Group: name, Key: "slowdown_mean", Value: s.Mean},
			runner.Cell{Group: name, Key: "slowdown_p99", Value: s.P99},
			runner.Cell{Group: name, Key: "jain", Value: stats.JainIndex(ps.Slowdowns)})
	}
	return cells
}

// SlowdownTable renders mean and tail slowdowns plus Jain's fairness index
// per policy (Fig. 5(c)/6(c)).
func (r *ClusterResult) SlowdownTable() string {
	header := []string{"policy", "mean", "p50", "p90", "p99", "jain"}
	var rows [][]string
	for _, name := range PolicyOrder {
		s := stats.Summarize(r.ByPolicy[name].Slowdowns)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.1f", s.Mean),
			fmt.Sprintf("%.1f", s.P50),
			fmt.Sprintf("%.1f", s.P90),
			fmt.Sprintf("%.1f", s.P99),
			fmt.Sprintf("%.2f", stats.JainIndex(r.ByPolicy[name].Slowdowns)),
		})
	}
	return runner.RenderTable(header, rows)
}

// Fig3Result reports the ablation of the paper's two design features.
type Fig3Result struct {
	// Normalized average job response time over Fair for:
	// Case 1: neither stage awareness nor in-queue ordering;
	// Case 2: stage awareness only;
	// Case 3: in-queue ordering only;
	// Case 4: both (the full LAS_MQ design).
	Cases [4]float64
}

// Fig3 reproduces the design-option comparison (paper Fig. 3): 100 jobs,
// Poisson arrivals with a 50-second mean interval, normalized over Fair.
func Fig3(opts Options) (*Fig3Result, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	variants := []struct {
		stageAware bool
		ordering   bool
	}{
		{stageAware: false, ordering: false},
		{stageAware: true, ordering: false},
		{stageAware: false, ordering: true},
		{stageAware: true, ordering: true},
	}
	var sums [4]float64
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
		fairMean := fairRun.MeanResponseTime()
		for i, v := range variants {
			cfg := core.DefaultConfig()
			cfg.StageAware = v.stageAware
			cfg.OrderByDemand = v.ordering
			mq, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			run, err := engine.Run(specs, mq, opts.engineConfig())
			if err != nil {
				return nil, fmt.Errorf("case %d: %w", i+1, err)
			}
			sums[i] += stats.Normalized(fairMean, run.MeanResponseTime())
		}
	}
	var res Fig3Result
	for i := range sums {
		res.Cases[i] = sums[i] / float64(opts.Repeats)
	}
	return &res, nil
}

// Table renders the ablation like Fig. 3.
func (r *Fig3Result) Table() string {
	header := []string{"case", "stage-aware", "in-queue ordering", "norm. resp. time (vs FAIR)"}
	features := [][2]string{{"no", "no"}, {"yes", "no"}, {"no", "yes"}, {"yes", "yes"}}
	var rows [][]string
	for i, c := range r.Cases {
		rows = append(rows, []string{
			"Case " + strconv.Itoa(i+1),
			features[i][0],
			features[i][1],
			fmt.Sprintf("%.2f", c),
		})
	}
	return runner.RenderTable(header, rows)
}

// Cells reports the four cases' normalized response times.
func (r *Fig3Result) Cells() []runner.Cell {
	var cells []runner.Cell
	for i, c := range r.Cases {
		cells = append(cells, runner.Cell{Group: fmt.Sprintf("case%d", i+1), Key: "norm", Value: c})
	}
	return cells
}

// TableIText renders the paper's Table I (workload composition).
func TableIText() string {
	header := []string{"bin", "job", "dataset", "maps", "reduces", "jobs"}
	var rows [][]string
	for _, jt := range workload.TableI() {
		rows = append(rows, []string{
			strconv.Itoa(jt.Bin),
			jt.Name,
			jt.DatasetSize,
			strconv.Itoa(jt.Maps),
			strconv.Itoa(jt.Reduces),
			strconv.Itoa(jt.Count),
		})
	}
	return runner.RenderTable(header, rows)
}
