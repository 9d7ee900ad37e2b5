package obs

import (
	"math"
	"sync"
)

// Histogram bucketing: base-2 log scale with 8 sub-buckets per octave
// (subBits=3), covering 2^-64 .. 2^64 — ~38 decimal orders of magnitude at
// ≤ 12.5% relative bucket width, wide enough for admission waits measured in
// milliseconds and 10M-job makespans alike. Values at or below zero (and
// NaN) land in a dedicated out-of-range tally; values beyond the range
// clamp to the edge buckets. The bucket array is fixed-size, so Observe
// never allocates.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	histMinExp     = -64
	histMaxExp     = 64
	histBuckets    = (histMaxExp - histMinExp) * histSubBuckets
)

// Histogram is an allocation-free log-scale histogram. It is a plain value
// (no internal locking): single-writer on the record path, with the owning
// sink providing synchronization for snapshots. The zero value is ready to
// use.
type Histogram struct {
	counts [histBuckets]int64
	// outOfRange tallies observations the log buckets cannot place:
	// v <= 0 and NaN. They still count toward Count/Sum/Min/Max and rank
	// below every bucket for quantile purposes.
	outOfRange int64
	count      int64
	sum        float64
	min, max   float64
}

// bucketIndex places a positive finite v: Frexp splits v = frac * 2^exp
// with frac in [0.5, 1), the octave selects the bucket group, and frac
// linearly selects one of the 8 sub-buckets within it.
func bucketIndex(v float64) int {
	frac, exp := math.Frexp(v)
	e := exp - histMinExp
	if e < 0 {
		return 0
	}
	if e >= histMaxExp-histMinExp {
		return histBuckets - 1
	}
	sub := int((frac - 0.5) * (2 * histSubBuckets))
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return e<<histSubBits | sub
}

// BucketBounds returns bucket i's half-open value range (lo, hi]: values v
// with lo < v <= hi are counted in bucket i (up to edge clamping).
func BucketBounds(i int) (lo, hi float64) {
	e := i>>histSubBits + histMinExp
	sub := i & (histSubBuckets - 1)
	lo = math.Ldexp(0.5+float64(sub)/(2*histSubBuckets), e)
	hi = math.Ldexp(0.5+float64(sub+1)/(2*histSubBuckets), e)
	return lo, hi
}

// Observe records one value. It never allocates.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	if h.count == 1 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	if v > 0 && !math.IsNaN(v) {
		h.counts[bucketIndex(v)]++
	} else {
		h.outOfRange++
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) by walking
// the cumulative bucket counts and interpolating linearly inside the
// selected bucket. Out-of-range observations rank below every bucket. With
// no observations it returns 0; the estimate's relative error is bounded by
// the sub-bucket width (≤ 12.5%).
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := float64(h.outOfRange)
	if rank <= cum && h.outOfRange > 0 {
		return h.min
	}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := BucketBounds(i)
			frac := (rank - cum) / float64(n)
			v := lo + frac*(hi-lo)
			// Clamp to the observed extremes so single-bucket histograms
			// report the exact value, not the bucket edge.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

// HistogramBucket is one non-empty bucket in a snapshot: the bucket's
// inclusive upper bound and its own (non-cumulative) count.
type HistogramBucket struct {
	Upper float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is an immutable copy of a Histogram with derived
// quantiles, the form served by /debug/schedhist and written to CSV.
type HistogramSnapshot struct {
	Count      int64             `json:"count"`
	Sum        float64           `json:"sum"`
	Min        float64           `json:"min"`
	Max        float64           `json:"max"`
	Mean       float64           `json:"mean"`
	P50        float64           `json:"p50"`
	P90        float64           `json:"p90"`
	P95        float64           `json:"p95"`
	P99        float64           `json:"p99"`
	P999       float64           `json:"p999"`
	OutOfRange int64             `json:"out_of_range,omitempty"`
	Buckets    []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's state, materializing only non-empty
// buckets in ascending bound order.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Count:      h.count,
		Sum:        h.sum,
		Min:        h.min,
		Max:        h.max,
		Mean:       h.Mean(),
		P50:        h.Quantile(0.50),
		P90:        h.Quantile(0.90),
		P95:        h.Quantile(0.95),
		P99:        h.Quantile(0.99),
		P999:       h.Quantile(0.999),
		OutOfRange: h.outOfRange,
	}
	for i, n := range h.counts {
		if n != 0 {
			_, hi := BucketBounds(i)
			snap.Buckets = append(snap.Buckets, HistogramBucket{Upper: hi, Count: n})
		}
	}
	return snap
}

// Histogram names, in the fixed sorted order every exposition surface
// (Prometheus text, schedhist JSON, CSV) emits them.
const (
	HistAdmissionWait = "admission_wait"
	HistResponse      = "response"
	HistRoundLatency  = "round_latency"
	HistSlowdown      = "slowdown"
	HistTaskDuration  = "task_duration"
)

// HistogramNames lists the Histograms sink's histogram names in emission
// (sorted) order.
func HistogramNames() []string {
	return []string{HistAdmissionWait, HistResponse, HistRoundLatency, HistSlowdown, HistTaskDuration}
}

// Histograms is the distribution-aggregating sink: log-scale histograms of
// job response time, slowdown, admission wait, task duration and per-round
// wall-clock scheduler latency. The record path takes one uncontended mutex
// (snapshots may race it on the live cluster) and never allocates —
// enforced, like the Ring, by the probe-gate zero-alloc test.
//
// Response, admission wait and task duration feed from the probe events;
// slowdown and round latency are pushed by the substrates, which find the
// sink once per run (Find), through ObserveSlowdown / ObserveRoundLatency,
// because neither is a simulation event (slowdown is fluid-only derived
// state, round latency is wall-clock and would poison deterministic
// event-stream sinks).
type Histograms struct {
	emitter
	mu            sync.Mutex
	response      Histogram
	slowdown      Histogram
	admissionWait Histogram
	taskDuration  Histogram
	roundLatency  Histogram
}

// NewHistograms returns an empty Histograms sink.
func NewHistograms() *Histograms {
	h := &Histograms{}
	h.emitter = emitter{h}
	return h
}

// Record implements Sink.
func (h *Histograms) Record(ev Event) {
	switch ev.Kind {
	case KindJobAdmitted:
		h.observe(&h.admissionWait, ev.F)
	case KindJobDone:
		h.observe(&h.response, ev.F)
	case KindTaskDone:
		h.observe(&h.taskDuration, ev.T-ev.F)
	}
}

func (h *Histograms) observe(g *Histogram, v float64) {
	h.mu.Lock()
	g.Observe(v)
	h.mu.Unlock()
}

// ObserveSlowdown records one job slowdown (response / isolated runtime).
// The fluid simulator pushes it at each job completion.
func (h *Histograms) ObserveSlowdown(slowdown float64) { h.observe(&h.slowdown, slowdown) }

// ObserveRoundLatency records the wall-clock seconds one scheduling round
// spent inside the policy; substrate.Driver pushes it per executed round.
// Wall-clock latency deliberately bypasses the event stream: it differs run
// to run, and the JSONL / ChromeTrace sinks must stay byte-deterministic.
func (h *Histograms) ObserveRoundLatency(seconds float64) { h.observe(&h.roundLatency, seconds) }

// get returns the histogram registered under name, or nil.
func (h *Histograms) get(name string) *Histogram {
	switch name {
	case HistAdmissionWait:
		return &h.admissionWait
	case HistResponse:
		return &h.response
	case HistRoundLatency:
		return &h.roundLatency
	case HistSlowdown:
		return &h.slowdown
	case HistTaskDuration:
		return &h.taskDuration
	}
	return nil
}

// Histogram returns a copy of the named histogram's current state and
// whether the name is known.
func (h *Histograms) Histogram(name string) (Histogram, bool) {
	g := h.get(name)
	if g == nil {
		return Histogram{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return *g, true
}

// NamedHistogram pairs a histogram name with its snapshot for ordered
// exposition surfaces.
type NamedHistogram struct {
	Name string `json:"name"`
	HistogramSnapshot
}

// SnapshotAll snapshots every histogram in the fixed sorted name order —
// the deterministic-ordering contract every summary/JSON surface follows.
func (h *Histograms) SnapshotAll() []NamedHistogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := HistogramNames()
	out := make([]NamedHistogram, 0, len(names))
	for _, name := range names {
		out = append(out, NamedHistogram{Name: name, HistogramSnapshot: h.get(name).Snapshot()})
	}
	return out
}
