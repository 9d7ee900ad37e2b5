// Command lasmq-bench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports (normalized or
// absolute average job response times); EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Usage:
//
//	lasmq-bench [-experiment all|NAME]   (-h lists the catalog's names)
//	            [-seed N] [-repeats N] [-trace-jobs N] [-uniform-jobs N]
//	            [-scale-jobs N] [-shards K] [-shard-workers M]
//	            [-csv-dir DIR]
//	            [-seeds N] [-workers M] [-cache DIR]
//	            [-cpuprofile FILE] [-memprofile FILE]
//	            [-trace-out FILE] [-trace-format jsonl|chrome]
//	            [-hist-out FILE] [-series-out FILE] [-series-window W]
//
// scale-100k (100,000 jobs, materialized), scale-1m (1,000,000 jobs, streamed
// over -shards independent sub-clusters), scale-10m (10,000,000 jobs, the
// same machinery 10x longer) and their task-engine twins scale-1m-engine /
// scale-10m-engine (the same streamed traces staged into map→reduce jobs and
// simulated task by task with chaos injection, sharded via engine.RunSharded)
// are stress tiers, not paper figures; "all" skips them in direct mode so
// reproduce-scale runs stay figure-shaped (select them explicitly, or run
// replicated mode, where the registry includes them). They are presets of one
// scale experiment: -scale-jobs overrides the trace length of whichever runs.
//
// -cpuprofile and -memprofile capture pprof profiles of the selected
// experiments (`go tool pprof` reads them), the same hooks `go test -bench`
// offers — use them to find where a slow figure actually spends its time.
//
// With -seeds > 1 (or -workers/-cache set) the replication engine takes
// over: every experiment is fanned out over N seeds on an M-worker pool,
// finished (experiment, seed) cells are served from the content-addressed
// cache in -cache DIR, and each figure is reported as mean ± 95 % CI across
// the seeds. A re-run with the same cache directory completes from cache.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lasmq/internal/cli"
	"lasmq/internal/experiments"
	"lasmq/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lasmq-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lasmq-bench", flag.ExitOnError)
	var (
		experiment  = fs.String("experiment", "all", "experiment to run (all, "+strings.Join(experiments.Names(), ", ")+")")
		seed        = fs.Int64("seed", 1, "workload/trace synthesis seed")
		repeats     = fs.Int("repeats", 1, "averaging repeats for cluster experiments")
		traceJobs   = fs.Int("trace-jobs", 0, "heavy-tailed trace length (default: paper's 24443)")
		uniformJobs = fs.Int("uniform-jobs", 0, "uniform workload length (default: paper's 10000)")
		scaleJobs   = fs.Int("scale-jobs", 0, "scale-tier trace length (default: the selected tier's preset, 100000 to 10000000)")
		shards      = fs.Int("shards", 0, "cluster partitions of the sharded scale tiers; affects results (default: 8)")
		shardWorker = fs.Int("shard-workers", 0, "concurrently advancing shards in the scale tiers; never affects results (default: GOMAXPROCS)")
		csvDir      = fs.String("csv-dir", "", "also write each experiment's plottable series as CSV files into this directory")
		seeds       = fs.Int("seeds", 1, "replications per experiment; > 1 engages the parallel replication engine and reports mean ± 95% CI")
		workers     = fs.Int("workers", 0, "worker-pool size for the replication engine (default GOMAXPROCS); setting it engages the engine")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory; re-runs serve completed (experiment, seed) cells from it")
		cpuProfile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
		traceOut    = fs.String("trace-out", "", "write a scheduler event trace of the selected experiments to this file (direct mode only)")
		traceFormat = fs.String("trace-format", "jsonl", "event-trace format: "+cli.TraceFormats())
		histOut     = fs.String("hist-out", "", "write the selected experiments' latency histograms as CSV to this file (direct mode only)")
		seriesOut   = fs.String("series-out", "", "write the windowed utilization/queue-depth series as CSV to this file (direct mode only)")
		seriesWin   = fs.Float64("series-window", 50, "series sampling window in cluster seconds")
	)
	fs.Parse(args) // ExitOnError: a bad flag never returns
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: lasmq-bench takes flags only (see -h)", fs.Args())
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lasmq-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lasmq-bench: memprofile:", err)
			}
		}()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	opts := experiments.Options{
		Seed:         *seed,
		Repeats:      *repeats,
		TraceJobs:    *traceJobs,
		UniformJobs:  *uniformJobs,
		ScaleJobs:    *scaleJobs,
		Shards:       *shards,
		ShardWorkers: *shardWorker,
	}

	if *seeds > 1 || *workers > 0 || *cacheDir != "" {
		if *traceOut != "" {
			return fmt.Errorf("-trace-out requires direct mode: the replication engine runs experiments on concurrent workers, which would interleave one trace file")
		}
		if *histOut != "" || *seriesOut != "" {
			return fmt.Errorf("-hist-out/-series-out require direct mode: the replication engine runs experiments on concurrent workers, which would interleave one sink")
		}
		return runReplicated(out, opts, runner.Options{
			Seeds:    *seeds,
			BaseSeed: *seed,
			Workers:  *workers,
			CacheDir: *cacheDir,
		}, *experiment, *csvDir)
	}

	selected, err := experiments.Select(*experiment)
	if err != nil {
		return err
	}
	// The series utilization denominator is the selected experiment's cluster
	// capacity. It varies across the catalog, so a multi-experiment run
	// disables the utilization column rather than report a wrong ratio.
	capacity := 0
	if len(selected) == 1 {
		capacity = selected[0].Capacity(opts)
	}
	sink, err := cli.OpenSink(cli.SinkConfig{
		TraceOut: *traceOut, TraceFormat: *traceFormat,
		HistOut: *histOut, SeriesOut: *seriesOut, SeriesWindow: *seriesWin,
		Capacity: capacity,
	})
	if err != nil {
		return err
	}
	opts.Probe = sink.Probe()
	for _, e := range selected {
		if err := runDirect(out, e, opts, *csvDir); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	sink.PrintSummary(out)
	return nil
}

// runDirect runs one catalog row and prints its section: title, table, the
// CSV files written, and the elapsed time.
func runDirect(out io.Writer, e experiments.Experiment, opts experiments.Options, csvDir string) error {
	start := time.Now()
	res, err := e.Run(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== %s ==\n", e.Title)
	fmt.Fprint(out, res.Table())
	if series, ok := res.(experiments.CSVReport); ok {
		for _, c := range series.CSVs() {
			name := c.Name
			if name == "" {
				name = e.Name
			}
			if err := writeCSV(out, csvDir, name, c.Write); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "[%s finished in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	return nil
}

// runReplicated drives the replication engine: the selected experiments fan
// out over the seed range on the worker pool, cached cells are reused, and
// every figure prints as a mean ± 95 % CI table.
func runReplicated(out io.Writer, opts experiments.Options, ropts runner.Options, experiment, csvDir string) error {
	var names []string
	if experiment != "all" {
		names = []string{experiment}
	}
	exps, err := experiments.SelectRegistry(opts, names...)
	if err != nil {
		return err
	}
	start := time.Now()
	report, err := runner.Run(exps, ropts)
	if err != nil {
		return err
	}
	ropts, _ = ropts.Defaults() // runner.Run accepted them
	fmt.Fprintf(out, "== Replicated run: %d experiment(s) x %d seed(s) (base seed %d, %d workers) ==\n\n",
		len(exps), ropts.Seeds, ropts.BaseSeed, ropts.Workers)
	for i := range report.Aggregates {
		a := &report.Aggregates[i]
		fmt.Fprintf(out, "-- %s (mean ± 95%% CI over %d seed(s)) --\n", a.Experiment, len(a.Seeds))
		fmt.Fprint(out, a.Table())
		fmt.Fprintln(out)
	}
	if ropts.CacheDir != "" {
		fmt.Fprintf(out, "cache: %d hit(s), %d miss(es) in %s\n", report.CacheHits, report.CacheMisses, ropts.CacheDir)
	}
	fmt.Fprintf(out, "[replicated run finished in %v]\n", time.Since(start).Round(time.Millisecond))
	return writeCSV(out, csvDir, "replicated", report.WriteCSV)
}

// writeCSV writes one series to <csvDir>/<name>.csv; an empty csvDir writes
// nothing.
func writeCSV(out io.Writer, csvDir, name string, write func(io.Writer) error) error {
	if csvDir == "" {
		return nil
	}
	path := filepath.Join(csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "(wrote %s)\n", path)
	return nil
}
