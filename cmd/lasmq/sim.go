package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/trace"
)

// runSim runs a trace-driven fluid simulation (the paper's Sec. V-C): it
// replays a CSV trace (see `lasmq trace`) or synthesizes the built-in
// heavy-tailed or uniform workload under a chosen policy.
//
// -trace-out records every scheduler event (submissions, admissions, queue
// demotions, completions): -trace-format jsonl is a deterministic
// line-oriented log, chrome is Chrome trace-event JSON for Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. -hist-out writes the run's
// latency distributions (response, slowdown, admission wait, task duration,
// scheduler round latency) as log-scale histogram CSVs with p50..p999
// summary rows; -series-out writes a windowed virtual-time series (live and
// waiting jobs, running containers, events/sec, per-queue depths), one point
// every -series-window cluster seconds.
func runSim(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lasmq sim", flag.ExitOnError)
	var (
		traceFile = fs.String("trace", "", "CSV trace to replay (from lasmq trace)")
		synth     = fs.String("synth", "facebook", "built-in trace when -trace is unset: facebook or uniform")
		jobs      = fs.Int("jobs", 0, "override job count (default: paper scale)")
		seed      = fs.Int64("seed", 1, "trace synthesis seed")
		capacity  = fs.Float64("capacity", 0, "cluster capacity in containers (default: per-trace)")
		jobsCSV   = fs.Bool("jobs-csv", false, "print per-job results as CSV")
		showCDF   = fs.Bool("cdf", false, "print the response-time CDF")
	)
	// Trace jobs have no stage structure, and the paper's trace simulations
	// use α₀ = 1 and FIFO queues.
	mq := core.DefaultConfig()
	mq.FirstThreshold, mq.StageAware, mq.OrderByDemand = 1, false, false
	pol := addPolicyFlags(fs, mq)
	sinkCfg := addSinkFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	fcfg := fluid.DefaultConfig()
	var specs []fluid.JobSpec
	var err error
	if *traceFile != "" {
		specs, err = readTrace(*traceFile)
		// Replays default to the capacity the shipped generator targets;
		// override with -capacity for traces built against another cluster.
		fcfg.Capacity = trace.DefaultFacebookConfig().Capacity
		if *capacity > 0 {
			fcfg.Capacity = *capacity
		}
	} else {
		specs, fcfg.Capacity, err = synthesize(*synth, *jobs, *seed, *capacity)
	}
	if err != nil {
		return err
	}
	policy, err := core.NewPolicy(pol.name, pol.mq)
	if err != nil {
		return err
	}
	sink, err := openSink(*sinkCfg)
	if err != nil {
		return err
	}
	fcfg.Probe = sink.probe()

	res, err := fluid.Run(specs, policy, fcfg)
	if err != nil {
		return err
	}
	if err := sink.close(); err != nil {
		return err
	}

	if *jobsCSV {
		fmt.Fprintln(out, "id,arrival,completed,response,size,width,slowdown")
		for _, jr := range res.Jobs {
			fmt.Fprintf(out, "%d,%g,%g,%g,%g,%g,%g\n",
				jr.ID, jr.Arrival, jr.Completed, jr.ResponseTime, jr.Size, jr.Width, jr.Slowdown)
		}
		return nil
	}
	fmt.Fprintf(out, "scheduler=%s jobs=%d capacity=%g makespan=%.4g rounds=%d\n",
		res.Scheduler, len(res.Jobs), fcfg.Capacity, res.Makespan, res.Rounds)
	printSummary(out, "response times", res.ResponseTimes())
	printSummary(out, "slowdowns", res.Slowdowns())
	if *showCDF {
		printCDF(out, res.ResponseTimes(), 50)
	}
	sink.printSummary(out)
	return nil
}

// readTrace reads a CSV trace file.
func readTrace(path string) ([]fluid.JobSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCSV(f)
}
