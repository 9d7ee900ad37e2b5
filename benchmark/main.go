// Command benchmark is the repository's sweep benchmark: five named
// workloads, each a closed-loop, seed-driven sweep of FIFO, FAIR, LAS and
// LAS_MQ through the public entry points of internal/fluid and
// internal/engine. Tracing off it reports what a user of the sweep feels
// (jobs per second, allocations, peak heap, set-up); tracing on it attributes
// host time to layers from outside. Simulated time is never a performance
// metric here. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it; a test holds the two
// in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end metric
	// may worsen before the change is a regression; per-layer metrics have
	// none.
	bound float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"norm_jobs_per_s", "jobs/s", "higher", 0.20},
	{"allocs_per_job", "1/job", "lower", 0.10},
	{"bytes_per_job", "B/job", "lower", 0.10},
}

var perLayer = perLayerDefs()

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{name: "run.raw_jobs_per_s", unit: "jobs/s", better: "higher"},
		{name: "run.machine_speed_x", unit: "x", better: "higher"},
		{name: "run.wall_spread", unit: "x", better: "lower"},
		{name: "run.trace_overhead_x", unit: "x", better: "lower"},
		{name: "run.clock_pair_ns", unit: "ns", better: "lower"},
		{name: "gc.cycles", unit: "count", better: "lower"},
		{name: "gc.pause_ms", unit: "ms", better: "lower"},
		{name: "mem.peak_live_heap_mb", unit: "MB", better: "lower"},
		{name: "sim.digest_ok", unit: "count", better: "higher"},
		{name: "policy.assign_calls", unit: "count", better: "lower"},
		{name: "policy.assign_s", unit: "s", better: "lower"},
		{name: "policy.assign_p50_ns", unit: "ns", better: "lower"},
		{name: "policy.assign_p99_ns", unit: "ns", better: "lower"},
		{name: "policy.views_per_round", unit: "count", better: "lower"},
		{name: "policy.observe_calls", unit: "count", better: "lower"},
		{name: "policy.observe_s", unit: "s", better: "lower"},
		{name: "policy.horizon_calls", unit: "count", better: "lower"},
		{name: "policy.horizon_s", unit: "s", better: "lower"},
		{name: "core.demotions", unit: "count", better: "lower"},
		{name: "trace.setup_s", unit: "s", better: "lower"},
		{name: "trace.next_calls", unit: "count", better: "lower"},
		{name: "trace.next_s", unit: "s", better: "lower"},
		{name: "workload.stage_next_s", unit: "s", better: "lower"},
		{name: "workload.generate_s", unit: "s", better: "lower"},
		{name: "engine.self_s", unit: "s", better: "lower"},
		{name: "engine.events", unit: "count", better: "lower"},
		{name: "engine.events_per_job", unit: "1/job", better: "lower"},
		{name: "engine.self_ns_per_event", unit: "ns", better: "lower"},
		{name: "engine.rounds_executed", unit: "count", better: "lower"},
		{name: "engine.rounds_skipped", unit: "count", better: "higher"},
		{name: "engine.rounds_observed", unit: "count", better: "lower"},
		{name: "engine.tasks_launched", unit: "count", better: "lower"},
		{name: "engine.task_failures", unit: "count", better: "lower"},
		{name: "engine.spec_launches", unit: "count", better: "lower"},
		{name: "engine.spec_wins", unit: "count", better: "higher"},
		{name: "engine.unexplained_share", unit: "x", better: "lower"},
		{name: "fluid.self_s", unit: "s", better: "lower"},
		{name: "fluid.rounds_executed", unit: "count", better: "lower"},
		{name: "fluid.rounds_per_job", unit: "1/job", better: "lower"},
		{name: "fluid.self_ns_per_round", unit: "ns", better: "lower"},
		{name: "substrate.slab_peak_live", unit: "count", better: "lower"},
		{name: "substrate.slab_recycled", unit: "count", better: "higher"},
		{name: "substrate.peak_admission_backlog", unit: "count", better: "lower"},
		{name: "substrate.viewset_round_ns", unit: "ns", better: "lower"},
		{name: "substrate.slabpool_cycle_ns", unit: "ns", better: "lower"},
		{name: "eventq.migrations", unit: "count", better: "lower"},
		{name: "eventq.heap_hold_ns.live", unit: "ns", better: "lower"},
		{name: "eventq.ladder_hold_ns.live", unit: "ns", better: "lower"},
		{name: "eventq.heap_hold_ns.n8192", unit: "ns", better: "lower"},
		{name: "eventq.ladder_hold_ns.n8192", unit: "ns", better: "lower"},
		{name: "sched.quantize_ns", unit: "ns", better: "lower"},
		{name: "shard.workers1_wall_s", unit: "s", better: "lower"},
		{name: "shard.speedup_x", unit: "x", better: "higher"},
	}
	for _, p := range policyOrder {
		defs = append(defs,
			metricDef{name: "run.wall_s." + p, unit: "s", better: "lower"},
			metricDef{name: "sim.mean_response." + p, unit: "s", better: "lower"},
			metricDef{name: "policy.self_s." + p, unit: "s", better: "lower"},
		)
	}
	return defs
}

// runSeconds is how long the driver lets one run measure (BENCHMARK.json
// run_seconds) and the default of -seconds.
const runSeconds = 20

// benchmarkDoc is BENCHMARK.json. Per-layer metrics have no bound, and no
// end-to-end bound is 0, so one metric type serves both lists.
type benchmarkDoc struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDoc  `json:"workloads"`
	EndToEnd   []metricDocRow `json:"end_to_end"`
	PerLayer   []metricDocRow `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDocRow struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// describe builds BENCHMARK.json from the tables above, so that the file and
// the program cannot drift apart: -describe prints it and a test compares.
func describe() benchmarkDoc {
	doc := benchmarkDoc{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, metricDocRow{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricDocRow{d.name, d.unit, d.better, 0})
	}
	return doc
}

// provenance says what produced an output.
type provenance struct {
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Quick      bool           `json:"quick"`
	Sizes      map[string]int `json:"jobs_per_policy_run"`
	SetupEvery int            `json:"sweeps_between_setups"`
	MinSweeps  int            `json:"min_sweeps"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GitRev     string         `json:"git_rev"`
	GitDirty   bool           `json:"git_dirty"`
	When       string         `json:"when"`
	WallS      float64        `json:"invocation_wall_s"`
}

var invocationStart = time.Now()

func stampNow(o options) provenance {
	p := provenance{
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Sizes:      map[string]int{},
		SetupEvery: o.setupEvery(), MinSweeps: o.minSweeps(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		When:  time.Now().UTC().Format(time.RFC3339),
		WallS: time.Since(invocationStart).Seconds(),
	}
	for _, w := range workloads() {
		p.Sizes[w.name] = o.size(w)
	}
	p.GitRev, p.GitDirty = gitState()
	return p
}

// gitState asks git once per invocation. A checkout that is not a git
// repository has no revision to report.
var gitState = sync.OnceValues(func() (rev string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err != nil || len(status) > 0
})

// runFile is what -out writes and -compare reads.
type runFile struct {
	Provenance provenance `json:"provenance"`
	Reports    []*report  `json:"reports"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.OpsAttempted, Failed: r.OpsFailed, Metrics: map[string]metricValue{}}
	for name, s := range r.Metrics {
		l.Metrics[name] = metricValue{s.Median, s.Unit}
	}
	return l
}

// print writes every metric by name and unit, for people.
func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s (%s): %d jobs per policy run, %d timed sweeps, %.1fs\n", r.Workload, r.Mode, r.Jobs, r.Sweeps, r.WallS)
	if r.Workload == "engine-sharded" && r.Mode == "per_layer" {
		fmt.Fprintln(out, "   the traced sweeps run serial (a probe forces it); run.trace_overhead_x is held against the workers-1 sweep")
	}
	fmt.Fprintf(out, "   ops_attempted %d  ops_failed %d  golden: %s\n", r.OpsAttempted, r.OpsFailed, r.Golden)
	for _, e := range r.Errors {
		fmt.Fprintf(out, "   ERROR %s\n", e)
	}
	all := make(map[string]stat, len(r.Metrics)+len(r.Raw))
	for name, s := range r.Metrics {
		all[name] = s
	}
	for name, s := range r.Raw {
		all[name] = s
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, name := range names {
		s := all[name]
		if s.N > 1 {
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\t(min %.6g, max %.6g, n %d)\n", name, s.Median, s.Unit, s.Min, s.Max, s.N)
		} else {
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\t\n", name, s.Median, s.Unit)
		}
	}
	tw.Flush()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workload names, or all")
	seed := fs.Int64("seed", 1, "the only input to the workload generators")
	seconds := fs.Float64("seconds", runSeconds, "how long each workload measures in each mode")
	trace := fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced sweeps; -1: both")
	quick := fs.Bool("quick", false, "all sizes / 20 and two sweeps per mode: a smoke test, not a measurement")
	out := fs.String("out", "", "write the run as JSON to this file")
	outDir := fs.String("outdir", "benchmark/out", "directory for trace-<workload>.json")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a breach")
	describeFlag := fs.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	update := fs.Bool("update-golden", false, "recompute the pinned digests and rewrite "+goldenPath+" (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *describeFlag {
		data, err := json.MarshalIndent(describe(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}
	if *update {
		if err := updateGolden(goldenPath); err != nil {
			return fail(err)
		}
		return 0
	}

	// Two threads at most: every workload but engine-sharded is one
	// goroutine, and a fixed width keeps runs on larger machines comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	golden, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir, golden: golden}
	if o.quick {
		o.seconds = 0
	}
	var selected []*benchWorkload
	for _, w := range workloads() {
		if *names == "all" || slices.Contains(strings.Split(*names, ","), w.name) {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (*names != "all" && len(selected) != len(strings.Split(*names, ","))) {
		return fail(fmt.Errorf("unknown workload in %q", *names))
	}
	modes := []func(*benchWorkload, options) (*report, error){runEndToEnd, runPerLayer}
	switch *trace {
	case 0:
		modes = modes[:1]
	case 1:
		modes = modes[1:]
	case -1:
	default:
		return fail(fmt.Errorf("-trace must be 0, 1 or -1"))
	}

	file := runFile{}
	code := 0
	for _, w := range selected {
		for _, mode := range modes {
			r, err := mode(w, o)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			file.Reports = append(file.Reports, r)
			r.print(stderr)
			if !r.Correct {
				code = 1
			}
			// One result line per workload and mode; the driver runs one of
			// each, so its last line is this one.
			line, err := json.Marshal(r.line())
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	file.Provenance = stampNow(o)
	stamp, _ := json.Marshal(file.Provenance)
	fmt.Fprintf(stderr, "\nprovenance %s\n", stamp)
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	return code
}
