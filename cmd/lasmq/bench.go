package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lasmq/internal/experiments"
	"lasmq/internal/runner"
)

// runBench regenerates the paper's tables and figures, one catalog row per
// experiment (-h lists their names); EXPERIMENTS.md compares them with the
// paper. The scale-* rows are stress tiers, not paper figures: "all" skips
// them in direct mode, and -scale-jobs overrides the trace length of
// whichever runs. -cpuprofile and -memprofile write pprof profiles of the
// run.
//
// With -seeds > 1 (or -workers/-cache set) the replication engine takes
// over: every experiment fans out over N seeds on an M-worker pool, finished
// (experiment, seed) cells are served from the content-addressed cache in
// -cache DIR, and each figure is reported as mean ± 95 % CI across the
// seeds. The telemetry flags need direct mode.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lasmq bench", flag.ExitOnError)
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
	)
	sinkCfg := addSinkFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
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
				fmt.Fprintln(os.Stderr, "lasmq bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lasmq bench: memprofile:", err)
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
		if sinkCfg.on() {
			return errors.New("-trace-out/-hist-out/-series-out require direct mode: the replication engine runs experiments on concurrent workers, which would interleave one sink")
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
	sink, err := openSink(*sinkCfg)
	if err != nil {
		return err
	}
	opts.Probe = sink.probe()
	for _, e := range selected {
		if err := runDirect(out, e, opts, *csvDir); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	if err := sink.close(); err != nil {
		return err
	}
	sink.printSummary(out)
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
