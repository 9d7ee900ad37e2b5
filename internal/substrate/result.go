package substrate

import (
	"slices"

	"lasmq/internal/obs"
)

// Result is the run-outcome accumulator embedded in every substrate's
// result type, deduplicating the response-time/slowdown/per-bin method sets
// the engine and fluid results used to reimplement separately. Substrates
// record each finished job in their canonical reporting order (workload
// order for the simulators), so the derived statistics — including the
// floating-point summation order behind MeanResponseTime — are deterministic
// and identical across substrates.
type Result struct {
	// Scheduler is the policy name (sched.Scheduler.Name).
	Scheduler string
	// Makespan is the completion time of the last job.
	Makespan float64
	// Utilization is the time-averaged fraction of capacity in use over the
	// makespan.
	Utilization float64
	// Counters holds the final aggregate snapshot when the run was driven
	// with an obs.Counters sink attached to its probe; nil otherwise. It is
	// telemetry about the run, not part of the simulated outcome —
	// differential tests that compare probed against unprobed runs null it
	// before comparing.
	Counters *obs.CounterSnapshot

	bins      []int
	responses []float64
	slowdowns []float64
}

// FoldCounters captures the final snapshot of the Counters sink attached to
// probe, if any. Substrates call it once while building their result.
func (r *Result) FoldCounters(probe obs.Probe) {
	if c, ok := obs.Find[*obs.Counters](probe); ok {
		snap := c.Snapshot()
		r.Counters = &snap
	}
}

// Reserve presizes the accumulator for n jobs, so a collector that records
// a whole run appends without growing. The slowdown column takes the same
// room on its first RecordSlowdown, so a substrate that records none pays
// nothing for it.
func (r *Result) Reserve(n int) {
	r.bins = slices.Grow(r.bins, n)
	r.responses = slices.Grow(r.responses, n)
}

// Record appends one finished job's Table-I bin (0 when the workload has no
// bins) and response time, in reporting order.
func (r *Result) Record(bin int, response float64) {
	r.bins = append(r.bins, bin)
	r.responses = append(r.responses, response)
}

// RecordSlowdown appends one finished job's slowdown (response over isolated
// runtime), in reporting order. Substrates that cannot compute an isolated
// baseline record none.
func (r *Result) RecordSlowdown(s float64) {
	if r.slowdowns == nil {
		r.slowdowns = make([]float64, 0, cap(r.responses))
	}
	r.slowdowns = append(r.slowdowns, s)
}

// Count is the number of recorded jobs.
func (r *Result) Count() int { return len(r.responses) }

// MeanResponseTime returns the average job response time, the paper's
// primary metric; 0 when no jobs were recorded. The sum runs in recording
// order so replays are bit-identical.
func (r *Result) MeanResponseTime() float64 {
	if len(r.responses) == 0 {
		return 0
	}
	var sum float64
	for _, x := range r.responses {
		sum += x
	}
	return sum / float64(len(r.responses))
}

// ResponseTimes returns a copy of the per-job response times in recording
// order.
func (r *Result) ResponseTimes() []float64 {
	out := make([]float64, len(r.responses))
	copy(out, r.responses)
	return out
}

// Slowdowns returns a copy of the per-job slowdowns in recording order.
func (r *Result) Slowdowns() []float64 {
	out := make([]float64, len(r.slowdowns))
	copy(out, r.slowdowns)
	return out
}

// BinMeans returns the mean response time per Table-I bin, accumulated in
// recording order.
func (r *Result) BinMeans() map[int]float64 {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for i, bin := range r.bins {
		sums[bin] += r.responses[i]
		counts[bin]++
	}
	out := make(map[int]float64, len(sums))
	for bin, n := range counts { // range-ok: per-key division, no cross-key accumulation
		out[bin] = sums[bin] / float64(n)
	}
	return out
}
