package core

import (
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// QueueSample is one snapshot of LAS_MQ's per-queue job occupancy.
type QueueSample struct {
	Time  float64
	Sizes []int
}

// QueueRecorder wraps a LAS_MQ scheduler and records per-queue occupancy
// over virtual time — instrumentation for watching the multilevel queue at
// work (small jobs churning through the top queues, large jobs settling at
// the bottom). It is itself a sched.Scheduler and can be passed to any
// engine.
//
// The recorder is built on the probe layer: it installs itself as the inner
// scheduler's obs.Probe and maintains the occupancy incrementally from
// queue enter/demote/exit events, snapshotting at allocation rounds. It
// forwards every optional scheduling capability of the inner LAS_MQ —
// BufferedAssigner, Observer, ObserveHinter, Hinter, in both forms of the
// round contract — so wrapping the policy neither breaks incremental-round
// replay nor changes results; a
// probe attached from outside (obs.ProbeSetter) is chained after the
// recorder's own bookkeeping.
type QueueRecorder struct {
	obs.Nop
	inner *LASMQ
	every float64
	last  float64

	sizes   []int
	samples []QueueSample
	maps    sched.MapForms

	// user is an externally attached probe (e.g. the substrate driver's);
	// queue events are forwarded to it after the occupancy update. The
	// inner LAS_MQ emits only queue events, so forwarding those three is a
	// complete relay.
	user obs.Probe
}

var (
	_ sched.Scheduler        = (*QueueRecorder)(nil)
	_ sched.BufferedAssigner = (*QueueRecorder)(nil)
	_ sched.Observer         = (*QueueRecorder)(nil)
	_ sched.ObserveHinter    = (*QueueRecorder)(nil)
	_ sched.Hinter           = (*QueueRecorder)(nil)
	_ sched.DenseAssigner    = (*QueueRecorder)(nil)
	_ sched.DenseHinter      = (*QueueRecorder)(nil)
	_ sched.DenseObserver    = (*QueueRecorder)(nil)
	_ obs.ProbeSetter        = (*QueueRecorder)(nil)
)

// NewQueueRecorder wraps inner, recording a snapshot at most every `every`
// units of virtual time (0 records at every scheduling round).
func NewQueueRecorder(inner *LASMQ, every float64) *QueueRecorder {
	r := &QueueRecorder{
		inner: inner,
		every: every,
		last:  -1,
		sizes: make([]int, inner.levels.Queues()),
	}
	inner.SetProbe(r)
	return r
}

// Name implements sched.Scheduler.
func (r *QueueRecorder) Name() string { return r.inner.Name() }

// SetProbe implements obs.ProbeSetter: external probes chain behind the
// recorder's occupancy bookkeeping.
func (r *QueueRecorder) SetProbe(p obs.Probe) { r.user = p }

// QueueEnter implements obs.Probe for the inner scheduler's events.
func (r *QueueRecorder) QueueEnter(now float64, job, queue int) {
	r.sizes[queue]++
	if r.user != nil {
		r.user.QueueEnter(now, job, queue)
	}
}

// QueueDemote implements obs.Probe for the inner scheduler's events.
func (r *QueueRecorder) QueueDemote(now float64, job, from, to int, attained float64) {
	r.sizes[from]--
	r.sizes[to]++
	if r.user != nil {
		r.user.QueueDemote(now, job, from, to, attained)
	}
}

// QueueExit implements obs.Probe for the inner scheduler's events.
func (r *QueueRecorder) QueueExit(now float64, job, queue int) {
	r.sizes[queue]--
	if r.user != nil {
		r.user.QueueExit(now, job, queue)
	}
}

// Assign implements sched.Scheduler.
func (r *QueueRecorder) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	return r.maps.Assign(r, now, capacity, jobs)
}

// AssignInto implements sched.BufferedAssigner.
func (r *QueueRecorder) AssignInto(now float64, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	r.maps.AssignInto(r, now, capacity, jobs, out)
}

// Observe implements sched.Observer.
func (r *QueueRecorder) Observe(now float64, jobs []sched.JobView) { r.maps.Observe(r, now, jobs) }

// ObserveHorizon implements sched.ObserveHinter.
func (r *QueueRecorder) ObserveHorizon(now float64, jobs []sched.JobView, rates sched.Assignment) float64 {
	return r.maps.ObserveHorizon(r, now, jobs, rates)
}

// Horizon implements sched.Hinter.
func (r *QueueRecorder) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	return r.maps.Horizon(r, now, jobs, alloc)
}

// AssignDense implements sched.DenseAssigner: delegate, then snapshot.
func (r *QueueRecorder) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares []float64) {
	r.inner.AssignDense(now, capacity, jobs, slots, changed, freed, shares)
	if r.last < 0 || now >= r.last+r.every {
		r.last = now
		r.samples = append(r.samples, QueueSample{Time: now, Sizes: append([]int(nil), r.sizes...)})
	}
}

// ObserveDense implements sched.DenseObserver by delegation, so skipped
// rounds keep the queue state and the occupancy in sync.
func (r *QueueRecorder) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	r.inner.ObserveDense(now, jobs, slots, changed, freed)
}

// ObserveHorizonDense implements sched.DenseObserver by delegation.
func (r *QueueRecorder) ObserveHorizonDense(now float64, jobs []sched.JobView, slots []int32, rates []float64) float64 {
	return r.inner.ObserveHorizonDense(now, jobs, slots, rates)
}

// HorizonDense implements sched.DenseHinter by delegation.
func (r *QueueRecorder) HorizonDense(now float64, jobs []sched.JobView, slots []int32, shares []float64) float64 {
	return r.inner.HorizonDense(now, jobs, slots, shares)
}

// Samples returns the recorded snapshots in time order.
func (r *QueueRecorder) Samples() []QueueSample { return r.samples }
