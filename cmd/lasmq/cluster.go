package main

import (
	"flag"
	"fmt"
	"io"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/workload"
)

// runCluster runs the Table I workload (the paper's testbed experiment) on
// the task-level cluster simulator under a chosen policy and reports
// response times, per-bin means and slowdowns.
func runCluster(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lasmq cluster", flag.ExitOnError)
	var (
		interval   = fs.Float64("interval", 80, "mean Poisson inter-arrival time (seconds)")
		seed       = fs.Int64("seed", 1, "workload seed")
		sigma      = fs.Float64("duration-sigma", 0.4, "lognormal task-duration skew (0 = none)")
		containers = fs.Int("containers", 120, "cluster capacity in containers")
		maxRunning = fs.Int("max-running", 30, "job admission limit (0 = unlimited)")
		failProb   = fs.Float64("failure-prob", 0, "task attempt failure probability")
		stragProb  = fs.Float64("straggler-prob", 0, "straggler probability per attempt")
		stragFact  = fs.Float64("straggler-factor", 3, "straggler duration multiplier")
		specul     = fs.Bool("speculation", false, "enable speculative execution")
		jobsCSV    = fs.Bool("jobs-csv", false, "print per-job results as CSV")
		showCDF    = fs.Bool("cdf", false, "print the response-time CDF")
		timeline   = fs.Float64("timeline", 0, "print a utilization timeline as CSV, sampled every N seconds")
		queueCSV   = fs.Float64("queue-timeline", 0, "print LAS_MQ per-queue occupancy as CSV, sampled every N seconds (lasmq scheduler only)")
	)
	pol := addPolicyFlags(fs, core.DefaultConfig())
	fs.BoolVar(&pol.mq.StageAware, "stage-awareness", true, "LAS_MQ: demote on the stage-aware service estimate")
	if err := parse(fs, args); err != nil {
		return err
	}

	policy, err := core.NewPolicy(pol.name, pol.mq)
	if err != nil {
		return err
	}
	var occupancy *obs.QueueTimeline
	if *queueCSV > 0 {
		if _, ok := policy.(*core.LASMQ); !ok {
			return fmt.Errorf("-queue-timeline requires the lasmq scheduler, got %s", policy.Name())
		}
		occupancy = obs.NewQueueTimeline(pol.mq.Queues, *queueCSV)
	}

	specs, err := workload.Generate(workload.Config{MeanInterval: *interval, DurationSigma: *sigma, Seed: *seed})
	if err != nil {
		return err
	}
	ecfg := engine.Config{
		Containers:      *containers,
		MaxRunningJobs:  *maxRunning,
		FailureProb:     *failProb,
		StragglerProb:   *stragProb,
		StragglerFactor: *stragFact,
		Speculation:     *specul,
		Seed:            *seed,
		SampleInterval:  *timeline,
	}
	// The queue timeline watches this run only: the isolated FIFO runs below
	// reuse ecfg.
	runCfg := ecfg
	if occupancy != nil {
		runCfg.Probe = occupancy
	}
	res, err := engine.Run(specs, policy, runCfg)
	if err != nil {
		return err
	}

	if *jobsCSV {
		fmt.Fprintln(out, "id,name,bin,arrival,admitted,completed,response,service,attempts,failures,speculative")
		for _, jr := range res.Jobs {
			fmt.Fprintf(out, "%d,%s,%d,%g,%g,%g,%g,%g,%d,%d,%d\n",
				jr.ID, jr.Name, jr.Bin, jr.Arrival, jr.Admitted, jr.Completed,
				jr.ResponseTime, jr.Service, jr.Attempts, jr.Failures, jr.Speculative)
		}
		return nil
	}

	fmt.Fprintf(out, "scheduler=%s interval=%gs jobs=%d containers=%d load=%.2f makespan=%.0fs\n",
		res.Scheduler, *interval, len(res.Jobs), *containers,
		workload.Load(workload.TableI(), *interval, *containers), res.Makespan)
	printSummary(out, "response times", res.ResponseTimes())
	// Slowdowns against isolated runtimes.
	bins, slowdowns := make([]int, len(res.Jobs)), make([]float64, len(res.Jobs))
	for i, jr := range res.Jobs {
		iso, err := engine.RunIsolated(specs[i], sched.NewFIFO(), ecfg)
		if err != nil {
			return err
		}
		bins[i], slowdowns[i] = jr.Bin, jr.ResponseTime/iso
	}
	if err := printBinMeans(out, bins, res.ResponseTimes()); err != nil {
		return err
	}
	printSummary(out, "slowdowns", slowdowns)

	if *showCDF {
		printCDF(out, res.ResponseTimes(), 50)
	}
	if *timeline > 0 {
		fmt.Fprintln(out, "time,used_containers,running_jobs,waiting_jobs")
		for _, s := range res.Timeline {
			fmt.Fprintf(out, "%g,%d,%d,%d\n", s.Time, s.UsedContainers, s.RunningJobs, s.WaitingJobs)
		}
	}
	if occupancy != nil {
		fmt.Fprint(out, "time")
		for q := 0; q < pol.mq.Queues; q++ {
			fmt.Fprintf(out, ",queue%d", q)
		}
		fmt.Fprintln(out)
		for _, s := range occupancy.Samples() {
			fmt.Fprintf(out, "%g", s.Time)
			for _, n := range s.Sizes {
				fmt.Fprintf(out, ",%d", n)
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}
