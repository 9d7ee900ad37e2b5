package sched

import (
	"fmt"
	"math"

	"lasmq/internal/obs"
)

// Blend mixes two policies' allocations convexly — the paper's second
// future-work direction ("design a tunable parameter to make the tradeoff
// [between fairness and job response times] and flexibly adjust the
// performance as needed"). With theta = 0 the blend is the primary policy
// (e.g. LAS_MQ, best mean response); with theta = 1 it is the secondary
// (e.g. Fair, best fairness); values in between trade mean response time for
// tail slowdown.
//
// Because both component allocations respect capacity and per-job demand,
// any convex combination does too, and the blend stays work conserving when
// both components are.
type Blend struct {
	parts  [2]blendPart // primary, secondary
	theta  float64
	ps, ss Shares // the components' answers
	maps   MapForms
}

// blendPart is one component and its DenseForms, driven with the blend's slots.
type blendPart struct {
	Scheduler
	assigner DenseAssigner
	hinter   DenseHinter
	observer DenseObserver
}

var (
	_ Scheduler        = (*Blend)(nil)
	_ BufferedAssigner = (*Blend)(nil)
	_ Observer         = (*Blend)(nil)
	_ ObserveHinter    = (*Blend)(nil)
	_ Hinter           = (*Blend)(nil)
	_ DenseAssigner    = (*Blend)(nil)
	_ DenseHinter      = (*Blend)(nil)
	_ DenseObserver    = (*Blend)(nil)
	_ obs.ProbeSetter  = (*Blend)(nil)
)

// NewBlend returns a scheduler allocating
// (1-theta)*primary + theta*secondary. theta must be in [0, 1].
func NewBlend(primary, secondary Scheduler, theta float64) (*Blend, error) {
	if primary == nil || secondary == nil {
		return nil, fmt.Errorf("sched: blend components must be non-nil")
	}
	// Written so that NaN fails: a NaN theta would make every share NaN.
	if !(theta >= 0 && theta <= 1) {
		return nil, fmt.Errorf("sched: blend theta must be in [0,1], got %v", theta)
	}
	return &Blend{parts: [2]blendPart{newBlendPart(primary), newBlendPart(secondary)}, theta: theta}, nil
}

func newBlendPart(p Scheduler) blendPart {
	a, h, o, _ := DenseForms(p)
	return blendPart{Scheduler: p, assigner: a, hinter: h, observer: o}
}

// Name implements Scheduler.
func (b *Blend) Name() string {
	return fmt.Sprintf("BLEND(%s,%s,%.2f)", b.parts[0].Name(), b.parts[1].Name(), b.theta)
}

// Theta returns the blend parameter.
func (b *Blend) Theta() float64 { return b.theta }

// SetProbe implements obs.ProbeSetter by forwarding the probe to both
// components, so a blend wrapping LAS_MQ keeps demotion telemetry flowing.
func (b *Blend) SetProbe(p obs.Probe) {
	for _, part := range b.parts {
		if ps, ok := part.Scheduler.(obs.ProbeSetter); ok {
			ps.SetProbe(p)
		}
	}
}

// Assign implements Scheduler.
func (b *Blend) Assign(now, capacity float64, jobs []JobView) Assignment {
	return b.maps.Assign(b, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (b *Blend) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	b.maps.AssignInto(b, now, capacity, jobs, out)
}

// Observe implements Observer.
func (b *Blend) Observe(now float64, jobs []JobView) { b.maps.Observe(b, now, jobs) }

// ObserveHorizon implements ObserveHinter.
func (b *Blend) ObserveHorizon(now float64, jobs []JobView, rates Assignment) float64 {
	return b.maps.ObserveHorizon(b, now, jobs, rates)
}

// Horizon implements Hinter.
func (b *Blend) Horizon(now float64, jobs []JobView, alloc Assignment) float64 {
	return b.maps.Horizon(b, now, jobs, alloc)
}

// AssignDense implements DenseAssigner: each active component's answer,
// mixed over the views either serves, in view order (elsewhere both are 0).
func (b *Blend) AssignDense(now, capacity float64, jobs []JobView, slots, changed, freed []int32, shares *Shares) {
	if b.theta == 0 || b.theta == 1 {
		b.parts[int(b.theta)].assigner.AssignDense(now, capacity, jobs, slots, changed, freed, shares)
		return
	}
	b.ps.Reset(len(jobs))
	b.ss.Reset(len(jobs))
	b.parts[0].assigner.AssignDense(now, capacity, jobs, slots, changed, freed, &b.ps)
	b.parts[1].assigner.AssignDense(now, capacity, jobs, slots, changed, freed, &b.ss)
	pc, sc := b.ps.Col(), b.ss.Col()
	p, s := b.ps.Served(), b.ss.Served()
	for len(p) > 0 || len(s) > 0 {
		var i int32
		if len(s) == 0 || (len(p) > 0 && p[0] <= s[0]) {
			i = p[0]
		} else {
			i = s[0]
		}
		if len(p) > 0 && p[0] == i {
			p = p[1:]
		}
		if len(s) > 0 && s[0] == i {
			s = s[1:]
		}
		shares.Add(int(i), (1-b.theta)*pc[i]+b.theta*sc[i])
	}
}

// active reports whether component i's AssignDense runs: the primary's when
// theta < 1, the secondary's when theta > 0.
func (b *Blend) active(i int) bool { return (i == 0 && b.theta < 1) || (i == 1 && b.theta > 0) }

// ObserveDense implements DenseObserver by forwarding to the active stateful
// components, so a blend wrapping LAS_MQ keeps its queue state in sync even
// at instants the engine skips a full scheduling round. A component that does
// not observe misses this call's log: FIFO, the one that keeps per-slot state
// all the same, finds a departure the log did not name by itself.
func (b *Blend) ObserveDense(now float64, jobs []JobView, slots, changed, freed []int32) {
	for i, part := range b.parts {
		if part.observer != nil && b.active(i) {
			part.observer.ObserveDense(now, jobs, slots, changed, freed)
		}
	}
}

// ObserveHorizonDense implements DenseObserver so that a blend over LAS_MQ
// keeps the substrate's observation gating: the minimum over the active
// observing components' horizons (now for one that cannot bound its own).
func (b *Blend) ObserveHorizonDense(now float64, jobs []JobView, slots []int32, rates []float64) float64 {
	horizon := math.Inf(1)
	for i, part := range b.parts {
		if part.observer == nil || !b.active(i) {
			continue
		}
		if t := part.observer.ObserveHorizonDense(now, jobs, slots, rates); t < horizon {
			horizon = t
		}
	}
	return horizon
}

// HorizonDense implements DenseHinter: the earliest change point of either
// component, evaluated against the blended shares (both components' horizons
// are pure functions of the shares they are given).
func (b *Blend) HorizonDense(now float64, jobs []JobView, slots []int32, shares *Shares) float64 {
	horizon := math.Inf(1)
	for _, part := range b.parts {
		if part.hinter == nil {
			continue
		}
		if t := part.hinter.HorizonDense(now, jobs, slots, shares); t < horizon {
			horizon = t
		}
	}
	return horizon
}
