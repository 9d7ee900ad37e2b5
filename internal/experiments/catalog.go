package experiments

import (
	"fmt"
	"slices"
	"strings"

	"lasmq/internal/runner"
)

// Report is the contract every experiment result implements, and all the
// catalog's consumers need: `lasmq bench` prints Table under the row's title,
// the replication registry aggregates Cells across seeds. Results with
// plottable series additionally implement CSVReport.
type Report interface {
	// Table renders the result as text, ending in a newline.
	Table() string
	// Cells flattens the result into scalar metric cells in a deterministic
	// order.
	Cells() []runner.Cell
}

// CSVReport is implemented by results that have plottable series.
type CSVReport interface {
	CSVs() []CSV
}

// textReport is a Report of fixed text with no metric cells.
type textReport string

func (t textReport) Table() string        { return string(t) }
func (t textReport) Cells() []runner.Cell { return nil }

// Experiment is one catalog row. Everything that enumerates experiments — the
// replication registry, `lasmq bench`'s dispatch, help text and "all" list —
// is computed from the rows, so adding an experiment is adding one row.
type Experiment struct {
	// Name is the value -experiment selects the row by.
	Name string
	// Title heads the row's section in `lasmq bench`'s output.
	Title string
	// Run executes the experiment at the given scale and seed.
	Run func(Options) (Report, error)
	// Stress marks the scale tiers: not paper figures, so "all" skips them in
	// direct mode (the replication registry includes them).
	Stress bool
	// DirectOnly marks rows with no per-seed metric cells; they are absent
	// from the replication registry.
	DirectOnly bool
}

// report adapts a typed experiment runner to the catalog's Run signature.
func report[R Report](run func(Options) (R, error)) func(Options) (Report, error) {
	return func(opts Options) (Report, error) {
		res, err := run(opts)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// scaleRow builds the catalog row of one scale-tier preset.
func scaleRow(name, title string, tier scaleTier) Experiment {
	return Experiment{Name: name, Title: "Scale tier: " + title, Run: report(tier.run), Stress: true}
}

// catalog declares every experiment once, in reporting order.
var catalog = []Experiment{
	{Name: "table1", Title: "Table I: workload composition", DirectOnly: true,
		Run: func(Options) (Report, error) { return textReport(TableIText()), nil }},
	{Name: "fig1", Title: "Fig. 1: motivating example (sizes 4, 4, 1)",
		Run: report(func(Options) (*Fig1Result, error) { return Fig1() })},
	{Name: "fig3", Title: "Fig. 3: design options (normalized over FAIR, 50 s interval)",
		Run: report(Fig3)},
	{Name: "fig5", Title: "Cluster experiment, 80 s mean arrival interval",
		Run: report(Fig5)},
	{Name: "fig6", Title: "Cluster experiment, 50 s mean arrival interval",
		Run: report(Fig6)},
	{Name: "fig7a", Title: "Fig. 7a: heavy-tailed trace (Facebook-like, load 0.9)",
		Run: report(Fig7HeavyTailed)},
	{Name: "fig7b", Title: "Fig. 7b: uniform workload (10,000 x size 10,000)",
		Run: report(Fig7Uniform)},
	{Name: "fig8a", Title: "Fig. 8a: number of queues sweep",
		Run: report(Fig8Queues)},
	{Name: "fig8b", Title: "Fig. 8b: first-queue threshold sweep",
		Run: report(Fig8Thresholds)},
	{Name: "sjf-error", Title: "Motivation: SJF under size-estimate error (50 s interval)",
		Run: report(MotivationSJFError)},
	{Name: "weights", Title: "Ablation: cross-queue weight decay (normalized over FAIR)",
		Run: report(AblationWeights)},
	{Name: "adaptive", Title: "Extension: adaptive thresholds (heavy-tailed trace)",
		Run: report(Adaptive)},
	{Name: "tradeoff", Title: "Extension: fairness/response tradeoff (LAS_MQ <-> FAIR blend)",
		Run: report(Tradeoff)},
	{Name: "geo", Title: "Extension: geo-distributed scheduling (3 sites, variable WAN)",
		Run: report(Geo)},
	{Name: "price-of-obliviousness", Title: "Price of obliviousness: information hierarchy on the congested Table-I mix",
		Run: report(PriceOfObliviousness)},
	scaleRow("scale-100k", "heavy-tailed trace at 100,000 jobs",
		scaleTier{jobs: 100_000}),
	scaleRow("scale-1m", "streamed heavy-tailed trace at 1,000,000 jobs, sharded",
		scaleTier{jobs: 1_000_000, sharded: true}),
	scaleRow("scale-10m", "streamed heavy-tailed trace at 10,000,000 jobs, sharded",
		scaleTier{jobs: 10_000_000, sharded: true}),
	scaleRow("scale-1m-engine", "1,000,000 staged jobs on the task engine, sharded, chaos on",
		scaleTier{jobs: 1_000_000, sharded: true, engine: true}),
	scaleRow("scale-10m-engine", "10,000,000 staged jobs on the task engine, sharded, chaos on",
		scaleTier{jobs: 10_000_000, sharded: true, engine: true}),
}

// rowNames lists the rows passing keep, in catalog order.
func rowNames(keep func(Experiment) bool) []string {
	var out []string
	for _, e := range catalog {
		if keep(e) {
			out = append(out, e.Name)
		}
	}
	return out
}

// Names lists every experiment in reporting order.
func Names() []string { return rowNames(func(Experiment) bool { return true }) }

// RegistryNames lists the experiments of the replication registry (every row
// that reports per-seed cells) in reporting order.
func RegistryNames() []string { return rowNames(func(e Experiment) bool { return !e.DirectOnly }) }

// Select resolves a direct-mode selection: "all" is every row not marked
// Stress, in catalog order; any other value names one row.
func Select(name string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range catalog {
		if e.Name == name || (name == "all" && !e.Stress) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(Names(), ", "))
	}
	return out, nil
}

// Registry returns the replication table: every catalog row that reports
// cells, as a pure func(seed) that re-derives its workload from that seed and
// hands its cells to the runner engine's cross-seed aggregation. The Options'
// scale knobs (TraceJobs, UniformJobs, ScaleJobs, Shards) apply to every
// entry and are folded into the cache fingerprint; Options.Seed and
// Options.Repeats are ignored — the runner owns seeding, and each replication
// is one repeat. At invalid Options every entry's Run returns the error.
func Registry(opts Options) []runner.Experiment {
	opts, invalid := opts.Defaults()
	// ShardWorkers is execution parallelism only and Probe observation only
	// (results are identical for any value), so both are deliberately absent
	// from the fingerprint.
	fp := fmt.Sprintf("trace-jobs=%d,uniform-jobs=%d,scale-jobs=%d,shards=%d",
		opts.TraceJobs, opts.UniformJobs, opts.ScaleJobs, opts.Shards)
	var out []runner.Experiment
	for _, e := range catalog {
		if e.DirectOnly {
			continue
		}
		out = append(out, runner.Experiment{
			Name:        e.Name,
			Fingerprint: fp,
			Run: func(seed int64) (*runner.Sample, error) {
				if invalid != nil {
					return nil, invalid
				}
				o := opts
				o.Seed = seed
				o.Repeats = 1
				res, err := e.Run(o)
				if err != nil {
					return nil, err
				}
				return &runner.Sample{Experiment: e.Name, Seed: seed, Cells: res.Cells()}, nil
			},
		})
	}
	return out
}

// SelectRegistry filters the registry down to the named experiments,
// preserving registration order; an empty names list selects everything.
func SelectRegistry(opts Options, names ...string) ([]runner.Experiment, error) {
	if _, err := opts.Defaults(); err != nil {
		return nil, err
	}
	all := Registry(opts)
	if len(names) == 0 {
		return all, nil
	}
	for _, n := range names {
		if slices.Contains(RegistryNames(), n) {
			continue
		}
		if slices.Contains(Names(), n) { // in the catalog, not the registry: DirectOnly
			return nil, fmt.Errorf("experiments: %s runs in direct mode only", n)
		}
		return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s)",
			n, strings.Join(RegistryNames(), ", "))
	}
	return slices.DeleteFunc(all, func(e runner.Experiment) bool { return !slices.Contains(names, e.Name) }), nil
}
