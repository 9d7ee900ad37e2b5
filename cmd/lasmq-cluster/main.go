// Command lasmq-cluster runs the Table I workload (the paper's testbed
// experiment) on the task-level cluster simulator under a chosen scheduling
// policy and reports response times, per-bin means and slowdowns.
//
// Usage:
//
//	lasmq-cluster [-scheduler lasmq|las|fair|fifo|sjf|srtf] [-interval 80]
//	              [-seed 1] [-containers 120] [-max-running 30]
//	              [-failure-prob 0] [-straggler-prob 0] [-straggler-factor 3]
//	              [-speculation] [-queues 10] [-threshold 100] [-step 10]
//	              [-decay 8] [-jobs-csv] [-cdf]
package main

import (
	"flag"
	"fmt"
	"os"

	"lasmq/internal/cli"
	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasmq-cluster:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		schedName = flag.String("scheduler", "lasmq", "scheduling policy: "+cli.SchedulerNames())
		interval  = flag.Float64("interval", 80, "mean Poisson inter-arrival time (seconds)")
		seed      = flag.Int64("seed", 1, "workload seed")
		sigma     = flag.Float64("duration-sigma", 0.4, "lognormal task-duration skew (0 = none)")

		containers = flag.Int("containers", 120, "cluster capacity in containers")
		maxRunning = flag.Int("max-running", 30, "job admission limit (0 = unlimited)")
		failProb   = flag.Float64("failure-prob", 0, "task attempt failure probability")
		stragProb  = flag.Float64("straggler-prob", 0, "straggler probability per attempt")
		stragFact  = flag.Float64("straggler-factor", 3, "straggler duration multiplier")
		specul     = flag.Bool("speculation", false, "enable speculative execution")

		queues    = flag.Int("queues", 10, "LAS_MQ: number of queues")
		threshold = flag.Float64("threshold", 100, "LAS_MQ: first queue threshold (container-seconds)")
		step      = flag.Float64("step", 10, "LAS_MQ: threshold step")
		decay     = flag.Float64("decay", 8, "LAS_MQ: cross-queue weight decay")
		noStage   = flag.Bool("no-stage-awareness", false, "LAS_MQ: disable stage awareness")
		noOrder   = flag.Bool("no-ordering", false, "LAS_MQ: disable in-queue ordering by demand")

		jobsCSV  = flag.Bool("jobs-csv", false, "print per-job results as CSV")
		showCDF  = flag.Bool("cdf", false, "print the response-time CDF")
		timeline = flag.Float64("timeline", 0, "print a utilization timeline as CSV, sampled every N seconds")
		queueCSV = flag.Float64("queue-timeline", 0, "print LAS_MQ per-queue occupancy as CSV, sampled every N seconds (lasmq scheduler only)")
	)
	flag.Parse()

	mqCfg := core.Config{
		Queues:           *queues,
		FirstThreshold:   *threshold,
		Step:             *step,
		QueueWeightDecay: *decay,
		StageAware:       !*noStage,
		OrderByDemand:    !*noOrder,
	}
	policy, err := cli.BuildScheduler(*schedName, mqCfg)
	if err != nil {
		return err
	}
	var occupancy *obs.QueueTimeline
	if *queueCSV > 0 {
		if _, ok := policy.(*core.LASMQ); !ok {
			return fmt.Errorf("-queue-timeline requires the lasmq scheduler, got %s", policy.Name())
		}
		occupancy = obs.NewQueueTimeline(*queues, *queueCSV)
	}

	wcfg := workload.Config{MeanInterval: *interval, DurationSigma: *sigma, Seed: *seed}
	specs, err := workload.Generate(wcfg)
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
		fmt.Println("id,name,bin,arrival,admitted,completed,response,service,attempts,failures,speculative")
		for _, jr := range res.Jobs {
			fmt.Printf("%d,%s,%d,%g,%g,%g,%g,%g,%d,%d,%d\n",
				jr.ID, jr.Name, jr.Bin, jr.Arrival, jr.Admitted, jr.Completed,
				jr.ResponseTime, jr.Service, jr.Attempts, jr.Failures, jr.Speculative)
		}
		return nil
	}

	fmt.Printf("scheduler=%s interval=%gs jobs=%d containers=%d load=%.2f makespan=%.0fs\n",
		res.Scheduler, *interval, len(res.Jobs), *containers,
		workload.Load(workload.TableI(), *interval, *containers), res.Makespan)
	cli.PrintSummary(os.Stdout, "response times", res.ResponseTimes())

	bins := make([]int, len(res.Jobs))
	for i, jr := range res.Jobs {
		bins[i] = jr.Bin
	}
	if err := cli.PrintBinMeans(os.Stdout, bins, res.ResponseTimes()); err != nil {
		return err
	}

	// Slowdowns against isolated runtimes.
	slowdowns := make([]float64, 0, len(res.Jobs))
	for i := range specs {
		iso, err := engine.RunIsolated(specs[i], sched.NewFIFO(), ecfg)
		if err != nil {
			return err
		}
		slowdowns = append(slowdowns, res.Jobs[i].ResponseTime/iso)
	}
	cli.PrintSummary(os.Stdout, "slowdowns", slowdowns)

	if *showCDF {
		cli.PrintCDF(os.Stdout, res.ResponseTimes(), 50)
	}
	if *timeline > 0 {
		fmt.Println("time,used_containers,running_jobs,waiting_jobs")
		for _, s := range res.Timeline {
			fmt.Printf("%g,%d,%d,%d\n", s.Time, s.UsedContainers, s.RunningJobs, s.WaitingJobs)
		}
	}
	if occupancy != nil {
		fmt.Print("time")
		for q := 0; q < *queues; q++ {
			fmt.Printf(",queue%d", q)
		}
		fmt.Println()
		for _, s := range occupancy.Samples() {
			fmt.Printf("%g", s.Time)
			for _, n := range s.Sizes {
				fmt.Printf(",%d", n)
			}
			fmt.Println()
		}
	}
	return nil
}
