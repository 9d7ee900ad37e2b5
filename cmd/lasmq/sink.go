package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lasmq/internal/obs"
)

// sinkConfig carries the telemetry-output flag values sim and bench share;
// an empty path leaves that output off.
type sinkConfig struct {
	// TraceOut receives the scheduler event trace in TraceFormat (jsonl or
	// chrome), alongside an aggregating obs.Counters for the summary.
	TraceOut, TraceFormat string
	// HistOut receives the latency histograms (job response, slowdown,
	// admission wait, task duration, per-round scheduler latency) as CSV.
	HistOut string
	// SeriesOut receives the windowed virtual-time series (utilization, queue
	// depths, live jobs, events/sec) as CSV, one point per SeriesWindow
	// virtual seconds.
	SeriesOut    string
	SeriesWindow float64
	// Capacity is the cluster's container count, the series' utilization
	// denominator; 0 disables the utilization column.
	Capacity int
}

// addSinkFlags registers the telemetry-output flags on fs.
func addSinkFlags(fs *flag.FlagSet) *sinkConfig {
	c := &sinkConfig{}
	fs.StringVar(&c.TraceOut, "trace-out", "", "write a scheduler event trace to this file (telemetry; results are unaffected)")
	fs.StringVar(&c.TraceFormat, "trace-format", "jsonl", "event-trace format: jsonl, chrome (chrome opens in Perfetto / chrome://tracing)")
	fs.StringVar(&c.HistOut, "hist-out", "", "write latency histograms (response/slowdown/wait/task/round) as CSV to this file")
	fs.StringVar(&c.SeriesOut, "series-out", "", "write the windowed utilization/queue-depth series as CSV to this file")
	fs.Float64Var(&c.SeriesWindow, "series-window", 50, "series sampling window in cluster seconds")
	return c
}

// on reports whether any output is asked for.
func (c *sinkConfig) on() bool { return c.TraceOut != "" || c.HistOut != "" || c.SeriesOut != "" }

// sink bundles every file-backed telemetry output of one run behind a single
// probe. Attaching it never changes simulated results. All methods are safe
// on a nil sink (telemetry off, zero overhead).
type sink struct {
	cfg      sinkConfig
	counters *obs.Counters
	hists    *obs.Histograms
	series   *obs.Series
	outputs  []sinkOutput
	sinks    []obs.Sink
}

// sinkOutput is one open output file and the writer that fills it on close.
type sinkOutput struct {
	kind, path string
	file       *os.File
	write      func(io.Writer) error
}

// openSink creates the outputs cfg asks for; with every path empty it returns
// (nil, nil). The returned sink must be closed to write the files.
func openSink(cfg sinkConfig) (*sink, error) {
	if !cfg.on() {
		return nil, nil
	}
	if cfg.TraceOut != "" && cfg.TraceFormat != "jsonl" && cfg.TraceFormat != "chrome" {
		return nil, fmt.Errorf("unknown trace format %q (want jsonl, chrome)", cfg.TraceFormat)
	}
	s := &sink{cfg: cfg}
	if cfg.TraceOut != "" {
		f, err := s.create("trace", cfg.TraceOut)
		if err != nil {
			return nil, err
		}
		s.counters = obs.NewCounters()
		s.sinks = append(s.sinks, s.counters)
		if cfg.TraceFormat == "chrome" {
			chrome := obs.NewChromeTrace()
			s.attach(chrome, chrome.Export)
		} else {
			jsonl := obs.NewJSONL(f)
			s.attach(jsonl, func(io.Writer) error { return jsonl.Flush() })
		}
	}
	if cfg.HistOut != "" {
		if _, err := s.create("histograms", cfg.HistOut); err != nil {
			return nil, err
		}
		s.hists = obs.NewHistograms()
		s.attach(s.hists, func(w io.Writer) error { return obs.WriteHistogramCSV(w, s.hists) })
	}
	if cfg.SeriesOut != "" {
		if _, err := s.create("series", cfg.SeriesOut); err != nil {
			return nil, err
		}
		s.series = obs.NewSeries(cfg.SeriesWindow, cfg.Capacity)
		s.attach(s.series, s.series.WriteCSV)
	}
	return s, nil
}

// create opens the next output file; on failure it removes the files the
// sink already created, so a refused run leaves nothing behind.
func (s *sink) create(kind, path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		for _, o := range s.outputs {
			o.file.Close()
			os.Remove(o.path)
		}
		return nil, err
	}
	s.outputs = append(s.outputs, sinkOutput{kind: kind, path: path, file: f})
	return f, nil
}

// attach wires the sink feeding the most recently created output and the
// writer that serializes it on close.
func (s *sink) attach(o obs.Sink, write func(io.Writer) error) {
	s.sinks = append(s.sinks, o)
	s.outputs[len(s.outputs)-1].write = write
}

// probe returns the probe to attach to the run (nil on a nil sink).
func (s *sink) probe() obs.Probe {
	if s == nil {
		return nil
	}
	return obs.Multi(s.sinks...)
}

// close writes and closes every output file, reporting the first failure.
func (s *sink) close() error {
	if s == nil {
		return nil
	}
	var first error
	for _, o := range s.outputs {
		err := o.write(o.file)
		if cerr := o.file.Close(); err == nil {
			err = cerr
		}
		if err != nil && first == nil {
			first = fmt.Errorf("%s %s: %w", o.kind, o.path, err)
		}
	}
	return first
}

// printSummary writes the aggregated counters, the response-time tail and
// the output paths to w.
func (s *sink) printSummary(w io.Writer) {
	if s == nil {
		return
	}
	if s.counters != nil {
		fmt.Fprintf(w, "telemetry (trace written to %s):\n", s.cfg.TraceOut)
		snap := s.counters.Snapshot()
		snap.WriteSummary(w)
	}
	if s.hists != nil {
		resp, ok := s.hists.Histogram(obs.HistResponse)
		if ok && resp.Count() > 0 {
			h := resp.Snapshot()
			fmt.Fprintf(w, "response histogram (written to %s): n=%d p50=%.4g p90=%.4g p95=%.4g p99=%.4g p999=%.4g\n",
				s.cfg.HistOut, h.Count, h.P50, h.P90, h.P95, h.P99, h.P999)
		} else {
			fmt.Fprintf(w, "histograms written to %s\n", s.cfg.HistOut)
		}
	}
	if s.series != nil {
		fmt.Fprintf(w, "series (written to %s): %d point(s), %d event(s)\n",
			s.cfg.SeriesOut, len(s.series.Points()), s.series.Events())
	}
}
