package sched

import "math"

// ExactSizer is implemented by engine job views that can report the job's
// exact remaining service (total minus attained), as opposed to the
// possibly-perturbed RemainingSizeHint. The SRPT baseline uses it to be a
// true clairvoyant optimum rather than an estimate-driven heuristic; views
// without it fall back to the hint.
type ExactSizer interface {
	ExactRemaining() float64
}

// exactRemaining reads the exact remaining service when the view offers it.
func exactRemaining(j JobView) float64 {
	if e, ok := j.(ExactSizer); ok {
		return e.ExactRemaining()
	}
	return j.RemainingSizeHint()
}

// SRPT is the preemptive shortest-remaining-processing-time baseline with
// exact sizes — the clairvoyant optimum the paper's oblivious policies are
// measured against. Unlike SRTF it reads exact remaining service through
// ExactSizer, immune to hint perturbation.
//
// The order is carried from round to round by slot and repaired by insertion:
// only the served jobs, already the smallest, decay, so an arrival appended at
// the end walks back past the jobs with more remaining service and no more.
//
// The scheduler carries persistent state, so one instance must not be shared
// between concurrent simulation runs.
type SRPT struct {
	entries []viewEntry // between rounds: the last round's order
	at      []int32     // carriedEntries' scratch
	maps    MapForms    // the map forms
}

// NewSRPT returns the exact-SRPT baseline scheduler.
func NewSRPT() *SRPT { return &SRPT{} }

var (
	_ Scheduler        = (*SRPT)(nil)
	_ BufferedAssigner = (*SRPT)(nil)
	_ Hinter           = (*SRPT)(nil)
	_ Observer         = (*SRPT)(nil)
	_ DenseAssigner    = (*SRPT)(nil)
	_ DenseHinter      = (*SRPT)(nil)
	_ DenseObserver    = (*SRPT)(nil)
)

// Name implements Scheduler.
func (s *SRPT) Name() string { return "SRPT" }

// Assign implements Scheduler.
func (s *SRPT) Assign(now, capacity float64, jobs []JobView) Assignment {
	return s.maps.Assign(s, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (s *SRPT) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	s.maps.AssignInto(s, now, capacity, jobs, out)
}

// Observe implements Observer.
func (s *SRPT) Observe(now float64, jobs []JobView) { s.maps.Observe(s, now, jobs) }

// Horizon implements Hinter.
func (s *SRPT) Horizon(now float64, jobs []JobView, alloc Assignment) float64 {
	return s.maps.Horizon(s, now, jobs, alloc)
}

// AssignDense implements DenseAssigner: every job with ready demand takes
// min(demand, remaining capacity) in (remaining service, seq) order.
func (s *SRPT) AssignDense(now, capacity float64, jobs []JobView, slots, _, _ []int32, shares *Shares) {
	entries := carriedEntries(&s.entries, &s.at, jobs, slots, exactRemaining)
	insertionSortEntries(entries)
	fillInOrder(entries, capacity, jobs, shares)
}

// ObserveDense implements DenseObserver: nothing to replay, as the carried
// order is only where the next round's repair starts.
func (s *SRPT) ObserveDense(float64, []JobView, []int32, []int32, []int32) {}

// ObserveHorizonDense implements DenseObserver: SRPT cannot bound it, so now.
func (s *SRPT) ObserveHorizonDense(now float64, _ []JobView, _ []int32, _ []float64) float64 {
	return now
}

// HorizonDense implements DenseHinter: under linear remaining-service decay
// the first order inversion always occurs between entries adjacent in the
// order the last AssignDense served, when a faster-draining later entry
// catches a slower earlier one.
func (s *SRPT) HorizonDense(now float64, _ []JobView, _ []int32, shares *Shares) float64 {
	horizon := math.Inf(1)
	col := shares.Col()
	for i := 1; i < len(s.entries); i++ {
		a, b := &s.entries[i-1], &s.entries[i]
		ra, rb := col[a.idx], col[b.idx]
		if rb <= ra {
			continue
		}
		dt := (b.key - a.key) / (rb - ra)
		if t := now + dt; t > now && t < horizon {
			horizon = t
		}
	}
	return horizon
}
