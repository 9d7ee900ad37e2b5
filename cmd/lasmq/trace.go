package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"lasmq/internal/fluid"
	"lasmq/internal/stats"
	"lasmq/internal/trace"
)

// runTrace synthesizes the simulation traces (the heavy-tailed
// Facebook-2010-like trace and the uniform light-tailed workload) in the CSV
// format `lasmq sim -trace` replays, or describes an existing one.
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lasmq trace", flag.ExitOnError)
	var (
		kind     = fs.String("kind", "facebook", "trace kind: facebook or uniform")
		jobs     = fs.Int("jobs", 0, "job count (default: paper scale)")
		seed     = fs.Int64("seed", 1, "synthesis seed")
		outFile  = fs.String("out", "", "output file (default: stdout)")
		describe = fs.String("describe", "", "describe an existing CSV trace instead of generating")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if *describe != "" {
		specs, err := readTrace(*describe)
		if err != nil {
			return err
		}
		return describeTrace(out, specs)
	}
	specs, _, err := synthesize(*kind, *jobs, *seed, 0)
	if err != nil {
		return err
	}
	if *outFile == "" {
		return trace.WriteCSV(out, specs)
	}
	f, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	if err := errors.Join(trace.WriteCSV(f, specs), f.Close()); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d jobs to %s\n", len(specs), *outFile)
	return nil
}

func describeTrace(w io.Writer, specs []fluid.JobSpec) error {
	if len(specs) == 0 {
		return errors.New("trace holds no jobs")
	}
	sizes, widths := make([]float64, len(specs)), make([]float64, len(specs))
	var horizon float64
	for i, s := range specs {
		sizes[i], widths[i], horizon = s.Size, s.Width, max(horizon, s.Arrival)
	}
	sorted := append([]float64(nil), sizes...)
	sort.Float64s(sorted)
	// Tail mass: the share of total work in the top 1% of jobs.
	top := len(sorted) - max(1, len(sorted)/100)
	var total, topSum float64
	for i, s := range sorted {
		total += s
		if i >= top {
			topSum += s
		}
	}
	sz := stats.Summarize(sizes)
	fmt.Fprintf(w, "jobs: %d\n", len(specs))
	fmt.Fprintf(w, "sizes: mean=%.4g median=%.4g p90=%.4g p99=%.4g max=%.4g\n",
		sz.Mean, sz.P50, sz.P90, sz.P99, sz.Max)
	fmt.Fprintf(w, "widths: mean=%.4g max=%.4g\n",
		stats.Mean(widths), stats.Percentile(widths, 1))
	fmt.Fprintf(w, "arrival horizon: %.4g\n", horizon)
	if horizon > 0 {
		fmt.Fprintf(w, "offered service rate: %.4g container-units/unit-time\n", total/horizon)
	}
	fmt.Fprintf(w, "work in top 1%% of jobs: %.1f%%\n", 100*topSum/total)
	return nil
}
