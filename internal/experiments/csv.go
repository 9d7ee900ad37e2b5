package experiments

import (
	"fmt"
	"io"

	"lasmq/internal/runner"
	"lasmq/internal/stats"
)

// CSV is one plottable series of a result: a file stem and its writer. An
// empty Name stands for the experiment's own name.
type CSV struct {
	Name  string
	Write func(io.Writer) error
}

// cdfPoints caps the rows per policy of the CDF CSVs.
const cdfPoints = 200

// CSVs lists the cluster experiment's series: per-bin bars, response-time CDF
// and slowdown CDF, file names keyed by the arrival interval.
func (r *ClusterResult) CSVs() []CSV {
	tag := fmt.Sprintf("fig_interval%v", r.MeanInterval)
	return []CSV{
		{Name: tag + "_bins", Write: r.WriteCSV},
		{Name: tag + "_cdf", Write: func(w io.Writer) error { return r.WriteCDFCSV(w, cdfPoints) }},
		{Name: tag + "_slowdown", Write: func(w io.Writer) error { return r.WriteSlowdownCSV(w, cdfPoints) }},
	}
}

// CSVs of the single-series results: one file named after the experiment.
func (r *Fig3Result) CSVs() []CSV           { return []CSV{{Write: r.WriteCSV}} }
func (r *TraceResult) CSVs() []CSV          { return []CSV{{Write: r.WriteCSV}} }
func (r *Fig8QueuesResult) CSVs() []CSV     { return []CSV{{Write: r.WriteCSV}} }
func (r *Fig8ThresholdsResult) CSVs() []CSV { return []CSV{{Write: r.WriteCSV}} }
func (r *PriceResult) CSVs() []CSV          { return []CSV{{Write: r.WriteCSV}} }

// tailCells reports one group's response-time tail as metric cells.
func tailCells(group string, responses []float64) []runner.Cell {
	s := stats.Summarize(responses)
	return []runner.Cell{
		{Group: group, Key: "p50", Value: s.P50},
		{Group: group, Key: "p95", Value: s.P95},
		{Group: group, Key: "p99", Value: s.P99},
	}
}

// percentileHeader is the tail-columns suffix every response-time CSV
// shares; percentileFields fills it from one sample (empty fields when the
// raw responses were not retained, e.g. the streamed scale tiers).
const percentileHeader = ",p50,p90,p95,p99,p999"

func percentileFields(values []float64) string {
	if len(values) == 0 {
		return ",,,,,"
	}
	s := stats.Summarize(values)
	return fmt.Sprintf(",%g,%g,%g,%g,%g", s.P50, s.P90, s.P95, s.P99, s.P999)
}

// WriteCSV emits the experiment's plottable series: one row per
// (policy, bin) mean plus overall means, as the paper's Fig. 5b/6b bars,
// each with its response-time tail.
func (r *ClusterResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "policy,bin,mean_response"+percentileHeader); err != nil {
		return err
	}
	for _, name := range PolicyOrder {
		ps := r.ByPolicy[name]
		for bin := 1; bin <= 4; bin++ {
			if _, err := fmt.Fprintf(w, "%s,%d,%g%s\n",
				name, bin, ps.BinMeans[bin], percentileFields(ps.BinResponses[bin])); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s,all,%g%s\n",
			name, ps.MeanResponse, percentileFields(ps.Responses)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCDFCSV emits the response-time CDFs (Fig. 5a/6a) downsampled to at
// most points rows per policy, plus each policy's final point.
func (r *ClusterResult) WriteCDFCSV(w io.Writer, points int) error {
	return r.writeCDFs(w, "policy,response,cdf", points, true,
		func(ps *PolicyStats) []float64 { return ps.Responses })
}

// WriteSlowdownCSV emits the slowdown CDFs (Fig. 5c/6c).
func (r *ClusterResult) WriteSlowdownCSV(w io.Writer, points int) error {
	return r.writeCDFs(w, "policy,slowdown,cdf", points, false,
		func(ps *PolicyStats) []float64 { return ps.Slowdowns })
}

// writeCDFs emits one empirical CDF per policy, every step-th point so that
// at most about points rows remain; closeTail appends the final point when
// the stride skipped it.
func (r *ClusterResult) writeCDFs(w io.Writer, header string, points int, closeTail bool, values func(*PolicyStats) []float64) error {
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, name := range PolicyOrder {
		cdf := stats.CDF(values(r.ByPolicy[name]))
		step := 1
		if points > 0 && len(cdf) > points {
			step = len(cdf) / points
		}
		for i := 0; i < len(cdf); i += step {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", name, cdf[i].X, cdf[i].P); err != nil {
				return err
			}
		}
		if n := len(cdf); closeTail && n > 0 && (n-1)%step != 0 {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", name, cdf[n-1].X, cdf[n-1].P); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV emits the trace experiment's bars (Fig. 7) with response-time
// tails; the percentile fields are empty for the streamed scale tiers, which
// do not retain per-job responses.
func (r *TraceResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "policy,mean_response,normalized_vs_fair"+percentileHeader); err != nil {
		return err
	}
	for _, name := range PolicyOrder {
		if _, err := fmt.Fprintf(w, "%s,%g,%g%s\n",
			name, r.Mean[name], r.Normalized[name], percentileFields(r.Responses[name])); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the queue-count sweep (Fig. 8a).
func (r *Fig8QueuesResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "queues,normalized_vs_fair"); err != nil {
		return err
	}
	for _, k := range sortedKeys(r.Normalized) {
		if _, err := fmt.Fprintf(w, "%d,%g\n", k, r.Normalized[k]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the threshold sweep (Fig. 8b).
func (r *Fig8ThresholdsResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "alpha0,normalized_vs_fair"); err != nil {
		return err
	}
	for _, alpha := range sortedKeys(r.Normalized) {
		if _, err := fmt.Fprintf(w, "%g,%g\n", alpha, r.Normalized[alpha]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the ablation bars (Fig. 3).
func (r *Fig3Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "case,stage_aware,in_queue_ordering,normalized_vs_fair"); err != nil {
		return err
	}
	features := [][2]string{{"no", "no"}, {"yes", "no"}, {"no", "yes"}, {"yes", "yes"}}
	for i, c := range r.Cases {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%g\n", i+1, features[i][0], features[i][1], c); err != nil {
			return err
		}
	}
	return nil
}
