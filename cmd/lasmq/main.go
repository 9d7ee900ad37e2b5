// Command lasmq runs the reproduction of LAS_MQ from one binary. The first
// argument names a subcommand; `lasmq <subcommand> -h` lists its flags.
//
//	lasmq sim      trace-driven fluid simulation (the paper's Sec. V-C)
//	lasmq cluster  the Table I workload on the task-level cluster simulator
//	lasmq live     a scaled-down Table I workload on the live mini-YARN cluster
//	lasmq bench    the paper's tables and figures, one catalog row each
//	lasmq trace    synthesize or describe a CSV trace
//
// sim and cluster share the scheduler flags (-scheduler -queues -threshold
// -step -decay -ordering); sim defaults LAS_MQ to α₀ = 1 and FIFO queues, as
// the paper's trace simulations do, cluster to the testbed's
// core.DefaultConfig() and adds -stage-awareness. sim and bench share the
// telemetry flags (-trace-out -trace-format -hist-out -series-out
// -series-window), which observe a run without changing its results;
// cluster -timeline N prints the same series (live and waiting jobs, running
// containers, events/sec, one column per LAS_MQ queue level entered).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/stats"
	"lasmq/internal/trace"
)

// commands maps each subcommand to its runner, which writes to out only.
var commands = map[string]func(args []string, out io.Writer) error{
	"sim":     runSim,
	"cluster": runCluster,
	"live":    runLive,
	"bench":   runBench,
	"trace":   runTrace,
}

var errUsage = errors.New("usage: lasmq sim|cluster|live|bench|trace [flags] (lasmq <subcommand> -h lists its flags)")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lasmq:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 || commands[args[0]] == nil {
		return errUsage
	}
	return commands[args[0]](args[1:], out)
}

// parse parses a subcommand's flags (a bad flag exits with status 2, -h with
// 0) and refuses positional arguments.
func parse(fs *flag.FlagSet, args []string) error {
	fs.Parse(args) // ExitOnError: a bad flag never returns
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: %s takes flags only (see -h)", fs.Args(), fs.Name())
	}
	return nil
}

// policyFlags holds the -scheduler choice and LAS_MQ's knobs.
type policyFlags struct {
	name string
	mq   core.Config
}

// addPolicyFlags registers -scheduler and LAS_MQ's knobs on fs with def's
// values as defaults.
func addPolicyFlags(fs *flag.FlagSet, def core.Config) *policyFlags {
	p := &policyFlags{mq: def}
	fs.StringVar(&p.name, "scheduler", "lasmq", "scheduling policy: "+strings.Join(core.PolicyNames(), ", "))
	fs.IntVar(&p.mq.Queues, "queues", def.Queues, "LAS_MQ: number of queues")
	fs.Float64Var(&p.mq.FirstThreshold, "threshold", def.FirstThreshold, "LAS_MQ: first queue threshold α₀ (attained service)")
	fs.Float64Var(&p.mq.Step, "step", def.Step, "LAS_MQ: threshold step")
	fs.Float64Var(&p.mq.QueueWeightDecay, "decay", def.QueueWeightDecay, "LAS_MQ: cross-queue weight decay")
	fs.BoolVar(&p.mq.OrderByDemand, "ordering", def.OrderByDemand, "LAS_MQ: order within queues by remaining demand (false: FIFO queues)")
	return p
}

// synthesize builds a built-in trace, facebook (heavy-tailed) or uniform
// (light-tailed), of jobs jobs (0: the paper's length) for a cluster of
// capacity containers (0: the trace's own), and returns it with that
// capacity.
func synthesize(kind string, jobs int, seed int64, capacity float64) ([]fluid.JobSpec, float64, error) {
	switch kind {
	case "facebook":
		cfg := trace.DefaultFacebookConfig()
		if jobs > 0 {
			cfg.Jobs = jobs
		}
		if capacity > 0 {
			cfg.Capacity = capacity
		}
		cfg.Seed = seed
		specs, err := trace.Facebook(cfg)
		return specs, cfg.Capacity, err
	case "uniform":
		if jobs <= 0 {
			jobs = 10000
		}
		if capacity <= 0 {
			capacity = 1
		}
		specs, err := trace.Uniform(jobs, 10000, seed)
		return specs, capacity, err
	}
	return nil, 0, fmt.Errorf("unknown trace kind %q (want facebook or uniform)", kind)
}

// printSummary writes a response-time summary block.
func printSummary(w io.Writer, label string, values []float64) {
	s := stats.Summarize(values)
	fmt.Fprintf(w, "%s: n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g\n",
		label, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// printCDF writes an empirical CDF, downsampled to at most points rows.
func printCDF(w io.Writer, values []float64, points int) {
	cdf := stats.CDF(values)
	if len(cdf) == 0 {
		return
	}
	step := 1
	if points > 0 && len(cdf) > points {
		step = len(cdf) / points
	}
	fmt.Fprintln(w, "value,cdf")
	for i := 0; i < len(cdf); i += step {
		fmt.Fprintf(w, "%g,%g\n", cdf[i].X, cdf[i].P)
	}
	if (len(cdf)-1)%step != 0 {
		last := cdf[len(cdf)-1]
		fmt.Fprintf(w, "%g,%g\n", last.X, last.P)
	}
}

// printBinMeans writes per-bin mean response times in bin order.
func printBinMeans(w io.Writer, bins []int, responses []float64) error {
	means, err := stats.GroupMeans(bins, responses)
	if err != nil {
		return err
	}
	keys := make([]int, 0, len(means))
	for k := range means {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "bin %d: mean response %.4g\n", k, means[k])
	}
	return nil
}
