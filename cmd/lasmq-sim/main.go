// Command lasmq-sim runs trace-driven fluid simulations (the paper's Sec. V-C
// evaluation). It replays a CSV trace (see lasmq-trace) or synthesizes the
// built-in heavy-tailed or uniform workloads, under a chosen policy.
//
// Usage:
//
//	lasmq-sim [-trace file.csv | -synth facebook|uniform] [-scheduler lasmq|...]
//	          [-capacity 20] [-jobs N] [-seed 1] [-queues 10] [-threshold 1]
//	          [-step 10] [-decay 8] [-jobs-csv] [-cdf]
//	          [-trace-out run.trace] [-trace-format jsonl|chrome]
//	          [-hist-out hist.csv] [-series-out series.csv] [-series-window 50]
//
// -trace-out records every scheduler event (submissions, admissions, queue
// demotions, completions) to a file: -trace-format jsonl is a deterministic
// line-oriented log, chrome is Chrome trace-event JSON for Perfetto
// (https://ui.perfetto.dev) or chrome://tracing. -hist-out writes the run's
// latency distributions (response, slowdown, admission wait, task duration,
// scheduler round latency) as log-scale histogram CSVs with p50..p999
// summary rows; -series-out writes a windowed virtual-time series
// (utilization, per-queue depths, live jobs, events/sec) sampled every
// -series-window cluster seconds. All of it is observation only — simulated
// results are identical with telemetry on or off.
package main

import (
	"flag"
	"fmt"
	"os"

	"lasmq/internal/cli"
	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasmq-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		traceFile = flag.String("trace", "", "CSV trace to replay (from lasmq-trace)")
		synth     = flag.String("synth", "facebook", "built-in trace when -trace is unset: facebook or uniform")
		jobs      = flag.Int("jobs", 0, "override job count (default: paper scale)")
		seed      = flag.Int64("seed", 1, "trace synthesis seed")
		schedName = flag.String("scheduler", "lasmq", "scheduling policy: "+cli.SchedulerNames())
		capacity  = flag.Float64("capacity", 0, "cluster capacity in containers (default: per-trace)")

		queues    = flag.Int("queues", 10, "LAS_MQ: number of queues")
		threshold = flag.Float64("threshold", 1, "LAS_MQ: first queue threshold")
		step      = flag.Float64("step", 10, "LAS_MQ: threshold step")
		decay     = flag.Float64("decay", 8, "LAS_MQ: cross-queue weight decay")
		ordering  = flag.Bool("ordering", false, "LAS_MQ: order within queues by remaining demand (trace sims default to FIFO queues)")

		jobsCSV = flag.Bool("jobs-csv", false, "print per-job results as CSV")
		showCDF = flag.Bool("cdf", false, "print the response-time CDF")

		traceOut    = flag.String("trace-out", "", "write a scheduler event trace to this file (telemetry; results are unaffected)")
		traceFormat = flag.String("trace-format", "jsonl", "event-trace format: "+cli.TraceFormats()+" (chrome opens in Perfetto / chrome://tracing)")
		histOut     = flag.String("hist-out", "", "write latency histograms (response/slowdown/wait/task/round) as CSV to this file")
		seriesOut   = flag.String("series-out", "", "write the windowed utilization/queue-depth series as CSV to this file")
		seriesWin   = flag.Float64("series-window", 50, "series sampling window in cluster seconds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: lasmq-sim takes flags only (see -h)", flag.Args())
	}

	specs, fcfg, err := loadTrace(*traceFile, *synth, *jobs, *seed, *capacity)
	if err != nil {
		return err
	}

	mqCfg := core.Config{
		Queues:           *queues,
		FirstThreshold:   *threshold,
		Step:             *step,
		QueueWeightDecay: *decay,
		StageAware:       false, // trace jobs have no stage structure
		OrderByDemand:    *ordering,
	}
	policy, err := cli.BuildScheduler(*schedName, mqCfg)
	if err != nil {
		return err
	}

	sink, err := cli.OpenSink(cli.SinkConfig{
		TraceOut: *traceOut, TraceFormat: *traceFormat,
		HistOut: *histOut, SeriesOut: *seriesOut, SeriesWindow: *seriesWin,
		Capacity: int(fcfg.Capacity),
	})
	if err != nil {
		return err
	}
	fcfg.Probe = sink.Probe()

	res, err := fluid.Run(specs, policy, fcfg)
	if err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}

	if *jobsCSV {
		fmt.Println("id,arrival,completed,response,size,width,slowdown")
		for _, jr := range res.Jobs {
			fmt.Printf("%d,%g,%g,%g,%g,%g,%g\n",
				jr.ID, jr.Arrival, jr.Completed, jr.ResponseTime, jr.Size, jr.Width, jr.Slowdown)
		}
		return nil
	}

	fmt.Printf("scheduler=%s jobs=%d capacity=%g makespan=%.4g rounds=%d\n",
		res.Scheduler, len(res.Jobs), fcfg.Capacity, res.Makespan, res.Rounds)
	cli.PrintSummary(os.Stdout, "response times", res.ResponseTimes())
	cli.PrintSummary(os.Stdout, "slowdowns", res.Slowdowns())
	if *showCDF {
		cli.PrintCDF(os.Stdout, res.ResponseTimes(), 50)
	}
	sink.PrintSummary(os.Stdout)
	return nil
}

func loadTrace(file, synth string, jobs int, seed int64, capacity float64) ([]fluid.JobSpec, fluid.Config, error) {
	fcfg := fluid.DefaultConfig()
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, fcfg, err
		}
		defer f.Close()
		specs, err := trace.ReadCSV(f)
		if err != nil {
			return nil, fcfg, err
		}
		// Replays default to the capacity the shipped generator targets;
		// override with -capacity for traces built against another cluster.
		fcfg.Capacity = trace.DefaultFacebookConfig().Capacity
		if capacity > 0 {
			fcfg.Capacity = capacity
		}
		return specs, fcfg, nil
	case synth == "facebook":
		tcfg := trace.DefaultFacebookConfig()
		if jobs > 0 {
			tcfg.Jobs = jobs
		}
		tcfg.Seed = seed
		if capacity > 0 {
			tcfg.Capacity = capacity
		}
		specs, err := trace.Facebook(tcfg)
		fcfg.Capacity = tcfg.Capacity
		return specs, fcfg, err
	case synth == "uniform":
		n := 10000
		if jobs > 0 {
			n = jobs
		}
		specs, err := trace.Uniform(n, 10000, seed)
		fcfg.Capacity = 1
		if capacity > 0 {
			fcfg.Capacity = capacity
		}
		return specs, fcfg, err
	default:
		return nil, fcfg, fmt.Errorf("unknown synthetic trace %q (want facebook or uniform)", synth)
	}
}
