package substrate

import "lasmq/internal/sched"

// ViewSet is the job-view registry a substrate refills every scheduling
// round: the sched.JobView slice handed to the policy, plus two optional
// side maps — each job's ready container demand (consumed by share
// quantization) and an upper bound on each job's decision-metric growth rate
// (consumed by sched.ObserveHinter horizon gating). All three reuse their
// backing storage across rounds, which is what keeps the steady scheduling
// path allocation-free. The demand map is the live resource manager's
// (internal/yarn) alone: it feeds sched.Quantizer.QuantizeInto there, while
// the task engine quantizes dense rows built from its own job state and
// always calls Begin(false, ·).
type ViewSet struct {
	views    []sched.JobView
	demand   map[int]float64
	rates    sched.Assignment
	hasRates bool
}

// Begin starts a new round, clearing the view slice and whichever side maps
// the round needs: withDemand for full rounds that quantize shares,
// withRates for observation rounds feeding a horizon-hinting policy.
// Untouched maps keep their (stale) contents and must not be read.
func (vs *ViewSet) Begin(withDemand, withRates bool) {
	vs.views = vs.views[:0]
	if withDemand {
		if vs.demand == nil {
			vs.demand = make(map[int]float64)
		}
		clear(vs.demand)
	}
	vs.hasRates = withRates
	if withRates {
		if vs.rates == nil {
			vs.rates = make(sched.Assignment)
		}
		clear(vs.rates)
	}
}

// Add registers one schedulable job's view for this round.
func (vs *ViewSet) Add(v sched.JobView) { vs.views = append(vs.views, v) }

// SetDemand records a job's ready container demand (Begin(true, ·) rounds).
func (vs *ViewSet) SetDemand(id int, d float64) { vs.demand[id] = d }

// SetRate records a job's metric-rate bound (Begin(·, true) rounds).
func (vs *ViewSet) SetRate(id int, r float64) { vs.rates[id] = r }

// Len is the number of views registered this round.
func (vs *ViewSet) Len() int { return len(vs.views) }

// Views returns this round's view slice, valid until the next Begin.
func (vs *ViewSet) Views() []sched.JobView { return vs.views }

// Demand returns the ready-demand map filled since Begin(true, ·).
func (vs *ViewSet) Demand() map[int]float64 { return vs.demand }

// Rates returns the metric-rate-bound map filled since Begin(·, true).
func (vs *ViewSet) Rates() sched.Assignment { return vs.rates }

// HasRates reports whether this round carries rate bounds (Begin(·, true)).
func (vs *ViewSet) HasRates() bool { return vs.hasRates }

// Reset empties the registry, dropping references into the caller's job
// state while keeping the backing storage — a pooled substrate arena calls
// this between runs so a recycled ViewSet cannot pin the previous workload.
func (vs *ViewSet) Reset() {
	clear(vs.views)
	vs.views = vs.views[:0]
	clear(vs.demand)
	clear(vs.rates)
	vs.hasRates = false
}
