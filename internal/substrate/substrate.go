// Package substrate is the scheduling-substrate kernel shared by the four
// YARN-like substrates of this reproduction: the task-level discrete-event
// simulator (internal/engine), the event-driven fluid simulator
// (internal/fluid), the live concurrent mini-YARN (internal/yarn), and the
// geo-distributed simulator (internal/geo). The paper's Fig. 4 architecture
// is one pluggable scheduler plugged into one substrate; this package is the
// substrate-independent half of that plug — everything a substrate needs to
// drive a sched.Scheduler correctly without knowing how time, containers, or
// task execution work.
//
// The kernel owns four pieces:
//
//   - Queue: the job-admission module (FIFO waiting queue, running-job cap,
//     admission sequence numbers, stuck-admission detection).
//   - ViewSet: the scratch-reusing registry of scheduler-facing job views a
//     substrate rebuilds each round, with the slot allocator and the slot,
//     share and rate columns of the dense round contract.
//   - Driver: the policy invocation loop — BufferedAssigner/Observer/
//     ObserveHinter/Hinter capability dispatch in map or dense form,
//     allocation-buffer reuse, and the observation-horizon gating that lets
//     substrates skip dead rounds without desynchronizing stateful policies.
//   - Result: the response-time/slowdown/per-bin accumulator behind every
//     substrate's result type.
//
// What stays substrate-local, deliberately: time itself (virtual event time,
// fluid continuous time, scaled wall clock), allocation enforcement
// (container quantization and task launch vs. fractional rates), and the
// metric-rate physics feeding ObserveHorizon — those depend on how each
// substrate models execution.
package substrate

import (
	"math"
	"time"

	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// Driver drives one sched.Scheduler on behalf of a substrate. It resolves
// the policy's optional capabilities once at construction, owns the reused
// allocation buffer for buffered policies, and tracks the observation
// horizon that bounds when a skipped round must replay the policy's state
// mutation. A Driver (like the policy it wraps) is not safe for concurrent
// use: each run drives it from a single scheduling loop.
type Driver struct {
	policy    sched.Scheduler
	buffered  sched.BufferedAssigner
	observer  sched.Observer
	obsHinter sched.ObserveHinter
	hinter    sched.Hinter
	alloc     sched.Assignment
	// The dense forms of the capabilities above. dense is nil unless the
	// policy has the dense form of everything it has in map form; when it is
	// non-nil, rounds over a slotted ViewSet never call a map form.
	dense        sched.DenseAssigner
	denseHinter  sched.DenseHinter
	denseObserve sched.DenseObserver
	// last is the assignment the latest map-form round returned, which that
	// round's Horizon call hands back to the policy.
	last  sched.Assignment
	probe obs.Probe
	// latency receives the wall-clock seconds each round spends inside the
	// policy, resolved once at SetProbe. It is a side-channel, not a Probe
	// event: wall-clock readings differ run to run, and the deterministic
	// event-stream sinks (JSONL, ChromeTrace) must never see them.
	latency obs.RoundLatencyObserver

	// Observation gating for skipped rounds: obsHorizon is the earliest time
	// the policy's state could change, valid while dirty is false.
	dirty      bool
	obsHorizon float64
}

// NewDriver wraps a fresh policy instance for one run.
func NewDriver(policy sched.Scheduler) *Driver {
	d := &Driver{policy: policy, dirty: true}
	if b, ok := policy.(sched.BufferedAssigner); ok {
		d.buffered = b
		d.alloc = make(sched.Assignment)
	}
	if o, ok := policy.(sched.Observer); ok {
		d.observer = o
	}
	if h, ok := policy.(sched.ObserveHinter); ok {
		d.obsHinter = h
	}
	if h, ok := policy.(sched.Hinter); ok {
		d.hinter = h
	}
	if a, ok := policy.(sched.DenseAssigner); ok {
		h, hasHinter := policy.(sched.DenseHinter)
		o, hasObserver := policy.(sched.DenseObserver)
		if (d.hinter == nil || hasHinter) && (d.observer == nil || hasObserver) {
			d.dense, d.denseHinter, d.denseObserve = a, h, o
		}
	}
	return d
}

// Policy returns the wrapped scheduler.
func (d *Driver) Policy() sched.Scheduler { return d.policy }

// SetProbe attaches a telemetry probe to the driver and, when the policy
// (or a wrapper around it) emits its own events, forwards the probe through
// obs.ProbeSetter. A nil probe detaches telemetry everywhere.
func (d *Driver) SetProbe(p obs.Probe) {
	d.probe = p
	d.latency = nil
	if h := obs.FindHistograms(p); h != nil {
		d.latency = h
	}
	if ps, ok := d.policy.(obs.ProbeSetter); ok {
		ps.SetProbe(p)
	}
}

// Name reports the policy name for results.
func (d *Driver) Name() string { return d.policy.Name() }

// speaksDense reports whether a round over vs goes through the policy's dense
// forms: the policy has them all, and every view was added with its slot, as
// all four substrates add them.
func (d *Driver) speaksDense(vs *ViewSet) bool {
	return d.dense != nil && len(vs.slots) == len(vs.views)
}

// beginRound is the bookkeeping every full policy invocation starts with: a
// full invocation mutates stateful policies, so it invalidates any previously
// computed observation horizon, and it is the RoundExecuted event. The
// returned time is read only when a histogram sink is listening — unprobed
// runs never touch the clock.
func (d *Driver) beginRound(now float64, views int) (start time.Time) {
	d.dirty = true
	if d.probe != nil {
		d.probe.RoundExecuted(now, views)
	}
	if d.latency != nil {
		start = time.Now()
	}
	return start
}

// endRound feeds the round-latency histogram the wall-clock time since
// beginRound: the policy invocation alone.
func (d *Driver) endRound(start time.Time) {
	if d.latency != nil {
		d.latency.ObserveRoundLatency(time.Since(start).Seconds())
	}
}

// assign runs one full policy invocation in map form, going through
// AssignInto when the policy supports buffered assignment. The returned
// assignment aliases the driver's buffer for buffered policies and is valid
// until the next call.
func (d *Driver) assign(now, capacity float64, views []sched.JobView) sched.Assignment {
	start := d.beginRound(now, len(views))
	out := d.alloc
	if d.buffered != nil {
		d.buffered.AssignInto(now, capacity, views, out)
	} else {
		out = d.policy.Assign(now, capacity, views)
	}
	d.endRound(start)
	return out
}

// Shares runs one full policy invocation over the views in vs and returns
// the share column: shares[i] belongs to the i-th view added, zero for a job
// the policy did not serve. A dense policy over slotted views fills the column
// itself; any other is invoked in map form and its map read out once per
// view. The column is valid until the next Shares call, and Horizon reads
// it.
func (d *Driver) Shares(now, capacity float64, vs *ViewSet) []float64 {
	vs.shares = grow(vs.shares[:0], len(vs.views))[:len(vs.views)]
	shares := vs.shares
	if !d.speaksDense(vs) {
		d.last = d.assign(now, capacity, vs.views)
		for i, v := range vs.views {
			shares[i] = d.last[v.ID()]
		}
		return shares
	}
	start := d.beginRound(now, len(vs.views))
	d.dense.AssignDense(now, capacity, vs.views, vs.slots, shares)
	d.endRound(start)
	return shares
}

// MarkDirty invalidates the observation horizon. Substrates call it whenever
// the inputs behind the policy's decision metrics change outside a round —
// an attempt ends, a job is admitted — so the next skipped round re-observes.
func (d *Driver) MarkDirty() { d.dirty = true }

// Observes reports whether the policy is stateful (implements
// sched.Observer) and therefore needs skipped rounds replayed at all.
func (d *Driver) Observes() bool { return d.observer != nil }

// NeedsRates reports whether Observe can exploit per-job metric-rate bounds
// (the policy implements sched.ObserveHinter); substrates that can compute
// bounds should fill them into the ViewSet so observation calls are gated by
// the horizon instead of firing every skipped round.
func (d *Driver) NeedsRates() bool { return d.obsHinter != nil }

// ObservationDue reports whether a skipped round at time now must replay the
// policy's state mutation via Observe. Stateless policies never need it; for
// horizon-hinting policies the call is elided while the job set and metric
// rates are unchanged (not dirty) and now is strictly before the horizon.
func (d *Driver) ObservationDue(now float64) bool {
	if d.observer == nil {
		return false
	}
	if d.obsHinter != nil && !d.dirty && now < d.obsHorizon {
		return false
	}
	return true
}

// Observe replays the policy's per-round state mutation for a skipped round
// over the views in vs. An empty view set is a no-op: a full round returns
// before invoking the policy when there is nothing to schedule, and skipped
// rounds must match. When the policy hints horizons and vs carries rate
// bounds, the next horizon is recorded and the dirty flag cleared, arming
// ObservationDue's fast path.
//
// Rate bounds reach a dense policy as the column AddRate filled; for a
// map-form policy the column is filed under the views' job IDs first.
func (d *Driver) Observe(now float64, vs *ViewSet) {
	if d.observer == nil || vs.Len() == 0 {
		return
	}
	rated := d.obsHinter != nil && vs.hasRates
	if d.speaksDense(vs) {
		d.denseObserve.ObserveDense(now, vs.views, vs.slots)
		if rated {
			d.obsHorizon = d.denseObserve.ObserveHorizonDense(now, vs.views, vs.slots, vs.rateCol)
			d.dirty = false
		}
		return
	}
	d.observer.Observe(now, vs.views)
	if rated {
		for i, v := range vs.views {
			vs.rates[v.ID()] = vs.rateCol[i]
		}
		d.obsHorizon = d.obsHinter.ObserveHorizon(now, vs.views, vs.rates)
		d.dirty = false
	}
}

// Horizon returns the earliest time strictly after now at which the policy's
// decision could change given the shares the latest Shares call over vs
// returned, or +Inf when the policy publishes no change points (does not
// implement sched.Hinter).
func (d *Driver) Horizon(now float64, vs *ViewSet) float64 {
	if d.hinter == nil {
		return math.Inf(1)
	}
	if d.speaksDense(vs) {
		return d.denseHinter.HorizonDense(now, vs.views, vs.slots, vs.shares)
	}
	return d.hinter.Horizon(now, vs.views, d.last)
}
