// Package mlq implements the multilevel-queue structure underlying LAS_MQ:
// exponentially increasing service thresholds and demote-only job placement
// (paper Sec. III-A and III-E).
//
// Queues are 0-indexed. Queue i (for i < k-1) demotes a job once the job's
// (estimated) attained service exceeds Thresholds[i]; the last queue has no
// threshold. With first threshold α₀ and step p, the thresholds are
// α₀, α₀·p, α₀·p², …
package mlq

import (
	"fmt"
	"math"
)

// Levels holds the demotion thresholds of a k-queue hierarchy.
type Levels struct {
	thresholds []float64 // len k-1; thresholds[i] belongs to queue i
}

// New builds the threshold hierarchy for k queues with the given first
// threshold and multiplicative step. k must be >= 1; if k == 1 there are no
// thresholds and every job stays in the single queue. first and step must be
// positive and finite (step may be 1 for linear, equal thresholds are
// rejected below 1): a NaN threshold compares false with every estimate and
// would silently file every job in the last queue.
func New(k int, first, step float64) (*Levels, error) {
	if k < 1 {
		return nil, fmt.Errorf("mlq: number of queues must be >= 1, got %d", k)
	}
	if k > 1 {
		if !(first > 0) || math.IsInf(first, 1) {
			return nil, fmt.Errorf("mlq: first threshold must be positive and finite, got %v", first)
		}
		if !(step >= 1) || math.IsInf(step, 1) {
			return nil, fmt.Errorf("mlq: step must be finite and >= 1, got %v", step)
		}
	}
	thresholds := make([]float64, 0, k-1)
	t := first
	for i := 0; i < k-1; i++ {
		thresholds = append(thresholds, t)
		t *= step
	}
	return &Levels{thresholds: thresholds}, nil
}

// Queues returns the number of queues k.
func (l *Levels) Queues() int { return len(l.thresholds) + 1 }

// Threshold returns the demotion threshold of queue i, or +Inf for the last
// queue (which never demotes).
func (l *Levels) Threshold(i int) float64 {
	if i < 0 {
		return math.Inf(1)
	}
	if i >= len(l.thresholds) {
		return math.Inf(1)
	}
	return l.thresholds[i]
}

// Placement returns the queue a job with the given attained-service estimate
// belongs to: the first queue whose threshold is at least the estimate
// (a job is demoted from queue i only when its service strictly exceeds
// threshold i, per Algorithm 1).
func (l *Levels) Placement(estimate float64) int {
	for i, t := range l.thresholds {
		if estimate <= t {
			return i
		}
	}
	return len(l.thresholds)
}

// Demote returns the queue for a job currently in queue current with the
// given service estimate. Movement is demote-only: stage-aware
// over-estimates that later shrink never promote a job back to a higher
// queue.
func (l *Levels) Demote(current int, estimate float64) int {
	if current < 0 {
		current = 0
	}
	last := len(l.thresholds)
	if current > last {
		current = last
	}
	p := l.Placement(estimate)
	if p < current {
		return current
	}
	return p
}
