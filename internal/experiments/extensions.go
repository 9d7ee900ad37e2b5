package experiments

import (
	"fmt"

	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/geo"
	"lasmq/internal/runner"
	"lasmq/internal/sched"
	"lasmq/internal/stats"
	"lasmq/internal/trace"
	"lasmq/internal/workload"
)

// AdaptiveResult compares fixed, mistuned and online-adaptive threshold
// ladders on the heavy-tailed trace (the paper's future-work item 1).
type AdaptiveResult struct {
	// Tuned is the mean response with the paper's hand-tuned ladder.
	Tuned float64
	// Mistuned is the mean response with a ladder six orders of magnitude
	// off.
	Mistuned float64
	// Adaptive is the mean response starting from the mistuned ladder with
	// online refitting.
	Adaptive float64
	// Refits counts how many times the adaptive ladder was refitted.
	Refits int
}

// Adaptive runs the adaptive-threshold experiment.
func Adaptive(opts Options) (*AdaptiveResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = opts.TraceJobs
	tcfg.Seed = opts.Seed
	specs, err := trace.Facebook(tcfg)
	if err != nil {
		return nil, err
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity

	run := func(policy sched.Scheduler) (float64, error) {
		res, err := fluid.Run(specs, policy, fcfg)
		if err != nil {
			return 0, err
		}
		return res.MeanResponseTime(), nil
	}

	res := &AdaptiveResult{}
	tuned, err := core.New(traceLASMQConfig())
	if err != nil {
		return nil, err
	}
	if res.Tuned, err = run(tuned); err != nil {
		return nil, err
	}

	badCfg := traceLASMQConfig()
	badCfg.FirstThreshold = 1e-6
	badCfg.Step = 2
	bad, err := core.New(badCfg)
	if err != nil {
		return nil, err
	}
	if res.Mistuned, err = run(bad); err != nil {
		return nil, err
	}

	acfg := core.DefaultAdaptiveConfig()
	acfg.StageAware = false
	acfg.OrderByDemand = false
	acfg.InitialThreshold = 1e-6
	acfg.InitialStep = 2
	adaptive, err := core.NewAdaptive(acfg)
	if err != nil {
		return nil, err
	}
	if res.Adaptive, err = run(adaptive); err != nil {
		return nil, err
	}
	res.Refits = adaptive.Refits()
	return res, nil
}

// Table renders the adaptive experiment.
func (r *AdaptiveResult) Table() string {
	header := []string{"ladder", "mean response"}
	rows := [][]string{
		{"hand-tuned (alpha0=1, step 10)", fmt.Sprintf("%.4g", r.Tuned)},
		{"mistuned (alpha0=1e-6, step 2)", fmt.Sprintf("%.4g", r.Mistuned)},
		{fmt.Sprintf("adaptive from mistuned (%d refits)", r.Refits), fmt.Sprintf("%.4g", r.Adaptive)},
	}
	return runner.RenderTable(header, rows)
}

// Cells reports the three ladders' means and the adaptive refit count.
func (r *AdaptiveResult) Cells() []runner.Cell {
	return []runner.Cell{
		{Group: "tuned", Key: "mean", Value: r.Tuned},
		{Group: "mistuned", Key: "mean", Value: r.Mistuned},
		{Group: "adaptive", Key: "mean", Value: r.Adaptive},
		{Group: "adaptive", Key: "refits", Value: float64(r.Refits)},
	}
}

// TradeoffPoint is one point of the fairness/response tradeoff curve.
type TradeoffPoint struct {
	Theta        float64
	MeanResponse float64
	P99Response  float64
	JainIndex    float64
}

// TradeoffCurve is the fairness/response tradeoff curve in ascending theta.
type TradeoffCurve []TradeoffPoint

// Tradeoff sweeps the LAS_MQ/Fair blend parameter on the Table I workload
// (the paper's future-work item 2).
func Tradeoff(opts Options) (TradeoffCurve, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	wcfg := workload.DefaultConfig()
	wcfg.MeanInterval = 50
	wcfg.Seed = opts.Seed
	specs, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	var points TradeoffCurve
	for _, theta := range []float64{0, 0.25, 0.5, 0.75, 1} {
		mq, err := core.New(core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		blend, err := sched.NewBlend(mq, sched.NewFair(), theta)
		if err != nil {
			return nil, err
		}
		res, err := engine.Run(specs, blend, opts.engineConfig())
		if err != nil {
			return nil, err
		}
		points = append(points, TradeoffPoint{
			Theta:        theta,
			MeanResponse: res.MeanResponseTime(),
			P99Response:  stats.Percentile(res.ResponseTimes(), 0.99),
			JainIndex:    stats.JainIndex(res.ResponseTimes()),
		})
	}
	return points, nil
}

// Table renders the tradeoff curve.
func (c TradeoffCurve) Table() string {
	header := []string{"theta (0=LAS_MQ, 1=FAIR)", "mean response", "p99 response", "jain"}
	var rows [][]string
	for _, p := range c {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.Theta),
			fmt.Sprintf("%.0f", p.MeanResponse),
			fmt.Sprintf("%.0f", p.P99Response),
			fmt.Sprintf("%.2f", p.JainIndex),
		})
	}
	return runner.RenderTable(header, rows)
}

// Cells reports mean, p99 and Jain's index per blend parameter.
func (c TradeoffCurve) Cells() []runner.Cell {
	var cells []runner.Cell
	for _, p := range c {
		g := fmt.Sprintf("theta=%g", p.Theta)
		cells = append(cells,
			runner.Cell{Group: g, Key: "mean", Value: p.MeanResponse},
			runner.Cell{Group: g, Key: "p99", Value: p.P99Response},
			runner.Cell{Group: g, Key: "jain", Value: p.JainIndex})
	}
	return cells
}

// GeoResult compares job-ordering and task-placement policies on a
// geo-distributed deployment (the paper's future-work item 3).
type GeoResult struct {
	// Mean maps "<policy>+<placement>" to mean response time.
	Mean map[string]float64
}

// Geo runs the geo-distributed experiment: three sites, slow variable WAN, a
// contended mix of interactive queries and heavy scans.
func Geo(opts Options) (*GeoResult, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	r := dist.New(opts.Seed)
	var specs []geo.JobSpec
	arrival := 0.0
	for i := 1; i <= 30; i++ {
		arrival += dist.Exponential(r, 8)
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
	cfg.Seed = opts.Seed

	res := &GeoResult{Mean: make(map[string]float64)}
	combos := []struct {
		label     string
		policy    string
		placement geo.PlacementPolicy
	}{
		{label: "FIFO+aware", policy: PolicyFIFO, placement: geo.PlaceLocalityAware},
		{label: "FAIR+aware", policy: PolicyFair, placement: geo.PlaceLocalityAware},
		{label: "FAIR+blind", policy: PolicyFair, placement: geo.PlaceBlind},
		{label: "LAS_MQ+aware", policy: PolicyLASMQ, placement: geo.PlaceLocalityAware},
		{label: "LAS_MQ+blind", policy: PolicyLASMQ, placement: geo.PlaceBlind},
	}
	mq := core.DefaultConfig()
	mq.FirstThreshold = 10
	for _, combo := range combos {
		policy, err := core.NewPolicy(combo.policy, mq)
		if err != nil {
			return nil, err
		}
		gcfg := cfg
		gcfg.Placement = combo.placement
		run, err := geo.Run(specs, policy, gcfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", combo.label, err)
		}
		res.Mean[combo.label] = run.MeanResponseTime()
	}
	return res, nil
}

// Table renders the geo experiment.
func (r *GeoResult) Table() string {
	header := []string{"combo", "mean response"}
	var rows [][]string
	for _, label := range []string{"FIFO+aware", "FAIR+blind", "FAIR+aware", "LAS_MQ+blind", "LAS_MQ+aware"} {
		rows = append(rows, []string{label, fmt.Sprintf("%.1f", r.Mean[label])})
	}
	return runner.RenderTable(header, rows)
}

// Cells reports the mean response per combo, in label order.
func (r *GeoResult) Cells() []runner.Cell {
	var cells []runner.Cell
	for _, label := range sortedKeys(r.Mean) {
		cells = append(cells, runner.Cell{Group: label, Key: "mean", Value: r.Mean[label]})
	}
	return cells
}
