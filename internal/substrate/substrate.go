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
//   - Driver: the policy invocation loop — the policy's capabilities
//     resolved once into dense forms, and the observation-horizon gating that
//     lets substrates skip dead rounds without desynchronizing stateful
//     policies.
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
// the forms it drives the policy through once, at construction
// (sched.DenseForms: the policy's own dense forms, or the map→dense adapter
// for a policy without them), and tracks the observation horizon that bounds
// when a skipped round must replay the policy's state mutation. A Driver
// (like the policy it wraps) is not safe for concurrent use: each run drives
// it from a single scheduling loop.
type Driver struct {
	policy   sched.Scheduler
	assigner sched.DenseAssigner
	hinter   sched.DenseHinter   // nil: the policy publishes no change points
	observer sched.DenseObserver // nil: the policy is stateless
	// rated says the observer bounds its next state change, so rate bounds
	// are worth computing.
	rated bool
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
	d.assigner, d.hinter, d.observer, d.rated = sched.DenseForms(policy)
	return d
}

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

// Shares runs one full policy invocation over the views in vs, handing the
// policy vs's change log and clearing it, and returns the share column:
// shares[i] belongs to the i-th view added, zero for a job the policy did not
// serve, valid until the next Shares call. Views without a slot
// (ViewSet.Add) suit only a policy that keeps no per-job state. The round
// invalidates the observation horizon, is the RoundExecuted event, and reads
// the wall clock only for a listening histogram sink.
func (d *Driver) Shares(now, capacity float64, vs *ViewSet) []float64 {
	vs.shares = Grow(vs.shares[:0], len(vs.views))[:len(vs.views)]
	d.dirty = true
	if d.probe != nil {
		d.probe.RoundExecuted(now, len(vs.views))
	}
	var start time.Time
	if d.latency != nil {
		start = time.Now()
	}
	changed, freed := vs.log()
	d.assigner.AssignDense(now, capacity, vs.views, vs.slots, changed, freed, vs.shares)
	vs.clearLog()
	if d.latency != nil {
		d.latency.ObserveRoundLatency(time.Since(start).Seconds())
	}
	return vs.shares
}

// MarkDirty invalidates the observation horizon. Substrates call it whenever
// the inputs behind the policy's decision metrics change outside a round —
// an attempt ends, a job is admitted — so the next skipped round re-observes.
func (d *Driver) MarkDirty() { d.dirty = true }

// Observes reports whether the policy is stateful (it observes) and
// therefore needs skipped rounds replayed at all.
func (d *Driver) Observes() bool { return d.observer != nil }

// NeedsRates reports whether Observe can exploit per-job metric-rate bounds
// (the policy bounds its observations); substrates that can compute bounds
// should fill them into the ViewSet so observation calls are gated by the
// horizon instead of firing every skipped round.
func (d *Driver) NeedsRates() bool { return d.rated }

// ObservationDue reports whether a skipped round at time now must replay the
// policy's state mutation via Observe. Stateless policies never need it; for
// horizon-hinting policies the call is elided while the job set and metric
// rates are unchanged (not dirty) and now is strictly before the horizon.
func (d *Driver) ObservationDue(now float64) bool {
	if d.observer == nil {
		return false
	}
	return d.dirty || !(now < d.obsHorizon)
}

// Observe replays the policy's per-round state mutation for a skipped round
// over the views in vs, handing the policy vs's change log and clearing it.
// An empty view set is a no-op that keeps the log: a full round returns
// before invoking the policy when there is nothing to schedule, and skipped
// rounds must match. When the policy hints horizons and vs carries rate
// bounds, the next horizon is recorded and the dirty flag cleared, arming
// ObservationDue's fast path.
func (d *Driver) Observe(now float64, vs *ViewSet) {
	if d.observer == nil || vs.Len() == 0 {
		return
	}
	changed, freed := vs.log()
	d.observer.ObserveDense(now, vs.views, vs.slots, changed, freed)
	vs.clearLog()
	if d.rated && vs.hasRates {
		d.obsHorizon = d.observer.ObserveHorizonDense(now, vs.views, vs.slots, vs.rateCol)
		d.dirty = false
	}
}

// Horizon returns the earliest time strictly after now at which the policy's
// decision could change given the shares the latest Shares call over vs
// returned, or +Inf when the policy publishes no change points.
func (d *Driver) Horizon(now float64, vs *ViewSet) float64 {
	if d.hinter == nil {
		return math.Inf(1)
	}
	return d.hinter.HorizonDense(now, vs.views, vs.slots, vs.shares)
}
