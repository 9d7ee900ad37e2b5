// Package cli holds helpers shared by the command-line tools: scheduler
// construction from flag values and small output formatters.
package cli

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"lasmq/internal/core"
	"lasmq/internal/sched"
	"lasmq/internal/stats"
)

// SchedulerNames lists the accepted -scheduler flag values.
func SchedulerNames() string { return strings.Join(core.PolicyNames(), ", ") }

// BuildScheduler constructs a fresh scheduler from a flag value. The mqCfg
// is used when name selects LAS_MQ.
func BuildScheduler(name string, mqCfg core.Config) (sched.Scheduler, error) {
	return core.NewPolicy(name, mqCfg)
}

// PrintSummary writes a response-time summary block.
func PrintSummary(w io.Writer, label string, responses []float64) {
	s := stats.Summarize(responses)
	fmt.Fprintf(w, "%s: n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g\n",
		label, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// PrintCDF writes an empirical CDF, downsampled to at most points rows.
func PrintCDF(w io.Writer, values []float64, points int) {
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

// PrintBinMeans writes per-bin mean response times in bin order.
func PrintBinMeans(w io.Writer, bins []int, responses []float64) error {
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
