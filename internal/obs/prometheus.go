package obs

import (
	"io"
	"strconv"
)

// Prometheus text exposition (version 0.0.4), hand-written against the
// stdlib only. Output is byte-deterministic for a given state: metric
// families emit in a fixed order, histogram buckets in ascending bound
// order, and floats through strconv's shortest round-trip form — pinned by
// a golden test, so scrapers and humans can diff two scrapes textually.

// WritePrometheus writes snap (if non-nil) as counter/gauge families and
// hists (if non-nil) as histogram families, all under the lasmq_ prefix.
func WritePrometheus(w io.Writer, snap *CounterSnapshot, hists *Histograms) error {
	pw := promWriter{w: w, buf: make([]byte, 0, 256)}
	if snap != nil {
		pw.counter("lasmq_jobs_submitted_total", "Jobs that arrived at the admission queue.", float64(snap.JobsSubmitted))
		pw.counter("lasmq_jobs_admitted_total", "Jobs released by the admission queue to the scheduler.", float64(snap.JobsAdmitted))
		pw.counter("lasmq_jobs_completed_total", "Jobs whose last stage completed.", float64(snap.JobsCompleted))
		pw.gauge("lasmq_admission_backlog_peak", "High-water mark of submitted-but-not-admitted jobs.", float64(snap.PeakAdmissionBacklog))
		pw.gauge("lasmq_admission_wait_max_seconds", "Longest admission wait observed.", snap.MaxAdmissionWait)
		pw.counter("lasmq_tasks_launched_total", "Task attempts launched, including speculative copies.", float64(snap.TasksLaunched))
		pw.counter("lasmq_tasks_completed_total", "Task attempts that completed their task.", float64(snap.TasksCompleted))
		pw.counter("lasmq_task_failures_total", "Task attempts that failed and were re-queued.", float64(snap.TaskFailures))
		pw.counter("lasmq_spec_launches_total", "Speculative task copies launched.", float64(snap.SpecLaunches))
		pw.counter("lasmq_spec_wins_total", "Speculative copies that beat the original attempt.", float64(snap.SpecWins))
		pw.demotions(snap.Demotions)
		pw.counter("lasmq_threshold_refits_total", "Adaptive demotion-ladder refits.", float64(snap.Refits))
		pw.counter("lasmq_rounds_executed_total", "Full scheduling rounds executed.", float64(snap.RoundsExecuted))
		pw.counter("lasmq_rounds_skipped_total", "Scheduling rounds proven unable to launch work and skipped.", float64(snap.RoundsSkipped))
		pw.counter("lasmq_rounds_observed_total", "Skipped rounds that replayed policy observation.", float64(snap.RoundsObserved))
		pw.counter("lasmq_arena_reuses_total", "Runs served by a recycled slab arena.", float64(snap.ArenaReuses))
		pw.gauge("lasmq_slab_peak_live", "Peak live slab free-list records.", float64(snap.SlabPeakLive))
		pw.counter("lasmq_slab_recycled_total", "Slab allocations served by recycling a completed record.", float64(snap.SlabRecycled))
	}
	if hists != nil {
		for _, nh := range hists.SnapshotAll() {
			pw.histogram(nh.Name, nh.HistogramSnapshot)
		}
	}
	return pw.err
}

// promHistogramMeta maps a Histograms sink name to its exposition name and
// help line. Units: virtual-time seconds except slowdown (a ratio) and
// round latency (wall-clock seconds).
func promHistogramMeta(name string) (metric, help string) {
	switch name {
	case HistAdmissionWait:
		return "lasmq_admission_wait_seconds", "Admission-queue wait per admitted job (virtual time)."
	case HistResponse:
		return "lasmq_response_seconds", "Job response time (virtual time)."
	case HistRoundLatency:
		return "lasmq_round_latency_seconds", "Wall-clock time per scheduling round spent in the policy."
	case HistSlowdown:
		return "lasmq_slowdown_ratio", "Job slowdown: response time over isolated runtime (fluid substrate)."
	case HistTaskDuration:
		return "lasmq_task_duration_seconds", "Task attempt duration (virtual time)."
	}
	return "lasmq_" + name, name + "."
}

type promWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (p *promWriter) flush() {
	if p.err == nil {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

func (p *promWriter) header(name, help, typ string) {
	p.buf = append(p.buf, "# HELP "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, help...)
	p.buf = append(p.buf, "\n# TYPE "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, typ...)
	p.buf = append(p.buf, '\n')
}

func (p *promWriter) value(v float64) {
	p.buf = strconv.AppendFloat(p.buf, v, 'g', -1, 64)
	p.buf = append(p.buf, '\n')
}

func (p *promWriter) counter(name, help string, v float64) {
	p.header(name, help, "counter")
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.value(v)
	p.flush()
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.value(v)
	p.flush()
}

// demotions emits the per-destination-queue demotion counter family in
// ascending queue order (the slice index is the queue, so order is
// inherently deterministic).
func (p *promWriter) demotions(counts []int64) {
	p.header("lasmq_queue_demotions_total", "LAS_MQ demotions by destination queue.", "counter")
	for q, n := range counts {
		p.buf = append(p.buf, `lasmq_queue_demotions_total{queue="`...)
		p.buf = strconv.AppendInt(p.buf, int64(q), 10)
		p.buf = append(p.buf, `"} `...)
		p.value(float64(n))
	}
	p.flush()
}

// histogram emits one histogram family: cumulative counts at each non-empty
// bucket's upper bound, the mandatory +Inf bucket, then _sum and _count.
// Out-of-range observations (v <= 0) are below every bound, so they join
// the first bucket's cumulative count.
func (p *promWriter) histogram(name string, snap HistogramSnapshot) {
	metric, help := promHistogramMeta(name)
	p.header(metric, help, "histogram")
	cum := snap.OutOfRange
	for _, b := range snap.Buckets {
		cum += b.Count
		p.buf = append(p.buf, metric...)
		p.buf = append(p.buf, `_bucket{le="`...)
		p.buf = strconv.AppendFloat(p.buf, b.Upper, 'g', -1, 64)
		p.buf = append(p.buf, `"} `...)
		p.value(float64(cum))
	}
	p.buf = append(p.buf, metric...)
	p.buf = append(p.buf, `_bucket{le="+Inf"} `...)
	p.value(float64(snap.Count))
	p.buf = append(p.buf, metric...)
	p.buf = append(p.buf, "_sum "...)
	p.value(snap.Sum)
	p.buf = append(p.buf, metric...)
	p.buf = append(p.buf, "_count "...)
	p.value(float64(snap.Count))
	p.flush()
}

// WriteSchedHist writes the /debug/schedhist JSON document: every histogram
// snapshot as an array in the fixed sorted name order (never a map, so key
// order cannot depend on Go's map iteration), hand-encoded like the JSONL
// sink for byte determinism.
func WriteSchedHist(w io.Writer, hists *Histograms) error {
	buf := make([]byte, 0, 1024)
	buf = append(buf, "{\"histograms\":["...)
	for i, nh := range hists.SnapshotAll() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendHistJSON(buf, nh.Name, nh.HistogramSnapshot)
	}
	buf = append(buf, "]}\n"...)
	_, err := w.Write(buf)
	return err
}

func appendHistJSON(buf []byte, name string, s HistogramSnapshot) []byte {
	buf = append(buf, `{"name":"`...)
	buf = append(buf, name...)
	buf = append(buf, `","count":`...)
	buf = strconv.AppendInt(buf, s.Count, 10)
	buf = append(buf, `,"sum":`...)
	buf = strconv.AppendFloat(buf, s.Sum, 'g', -1, 64)
	buf = append(buf, `,"min":`...)
	buf = strconv.AppendFloat(buf, s.Min, 'g', -1, 64)
	buf = append(buf, `,"max":`...)
	buf = strconv.AppendFloat(buf, s.Max, 'g', -1, 64)
	buf = append(buf, `,"mean":`...)
	buf = strconv.AppendFloat(buf, s.Mean, 'g', -1, 64)
	for _, q := range [...]struct {
		key string
		v   float64
	}{{"p50", s.P50}, {"p90", s.P90}, {"p95", s.P95}, {"p99", s.P99}, {"p999", s.P999}} {
		buf = append(buf, `,"`...)
		buf = append(buf, q.key...)
		buf = append(buf, `":`...)
		buf = strconv.AppendFloat(buf, q.v, 'g', -1, 64)
	}
	if s.OutOfRange > 0 {
		buf = append(buf, `,"out_of_range":`...)
		buf = strconv.AppendInt(buf, s.OutOfRange, 10)
	}
	buf = append(buf, `,"buckets":[`...)
	for i, b := range s.Buckets {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"le":`...)
		buf = strconv.AppendFloat(buf, b.Upper, 'g', -1, 64)
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendInt(buf, b.Count, 10)
		buf = append(buf, '}')
	}
	buf = append(buf, "]}"...)
	return buf
}

// WriteHistogramCSV writes every histogram's summary row plus its non-empty
// buckets in the fixed sorted name order:
//
//	hist,kind,le,count,sum,min,max,mean,p50,p90,p95,p99,p999
//
// kind is "summary" for the per-histogram aggregate row (le empty) and
// "bucket" for one bucket's own count at upper bound le. This is the
// -hist-out format of lasmq-sim / lasmq-bench.
func WriteHistogramCSV(w io.Writer, hists *Histograms) error {
	buf := make([]byte, 0, 256)
	buf = append(buf, "hist,kind,le,count,sum,min,max,mean,p50,p90,p95,p99,p999\n"...)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, nh := range hists.SnapshotAll() {
		s := nh.HistogramSnapshot
		buf = buf[:0]
		buf = append(buf, nh.Name...)
		buf = append(buf, ",summary,,"...)
		buf = strconv.AppendInt(buf, s.Count, 10)
		for _, v := range [...]float64{s.Sum, s.Min, s.Max, s.Mean, s.P50, s.P90, s.P95, s.P99, s.P999} {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		for _, b := range s.Buckets {
			buf = append(buf, nh.Name...)
			buf = append(buf, ",bucket,"...)
			buf = strconv.AppendFloat(buf, b.Upper, 'g', -1, 64)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, b.Count, 10)
			buf = append(buf, ",,,,,,,,,\n"...)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
