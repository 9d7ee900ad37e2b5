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
//   - ViewSet: the scratch-reusing registry of scheduler-facing job views,
//     with the slot allocator, the slot column of the dense round contract,
//     and the sparse share answer the policy fills.
//   - Driver: the policy invocation loop — the policy's capabilities
//     resolved once into dense forms, a full round (Shares, Horizon), and the
//     observation that replays a stateful policy's state change on a round a
//     substrate skips (Observe).
//   - Result: the response-time/slowdown/per-bin accumulator behind every
//     substrate's result type.
//
// What stays substrate-local, deliberately: time itself (virtual event time,
// fluid continuous time, scaled wall clock), allocation enforcement
// (container quantization and task launch vs. fractional rates), and the
// proof that a round may be skipped — those depend on how each substrate
// models execution.
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
// for a policy without them). A Driver (like the policy it wraps) is not safe
// for concurrent use: each run drives it from a single scheduling loop.
type Driver struct {
	policy   sched.Scheduler
	assigner sched.DenseAssigner
	hinter   sched.DenseHinter   // nil: the policy publishes no change points
	observer sched.DenseObserver // nil: the policy is stateless
	probe    obs.Probe
	// hist receives the wall-clock seconds each round spends inside the
	// policy, found once at SetProbe. It is a side-channel, not a Probe
	// event: wall-clock readings differ run to run, and the deterministic
	// event-stream sinks (JSONL, ChromeTrace) must never see them.
	hist *obs.Histograms
}

// NewDriver wraps a fresh policy instance for one run.
func NewDriver(policy sched.Scheduler) *Driver {
	d := &Driver{policy: policy}
	d.assigner, d.hinter, d.observer = sched.DenseForms(policy)
	return d
}

// SetProbe attaches a telemetry probe to the driver and, when the policy
// (or a wrapper around it) emits its own events, forwards the probe through
// obs.ProbeSetter. A nil probe detaches telemetry everywhere.
func (d *Driver) SetProbe(p obs.Probe) {
	d.probe = p
	d.hist, _ = obs.Find[*obs.Histograms](p)
	if ps, ok := d.policy.(obs.ProbeSetter); ok {
		ps.SetProbe(p)
	}
}

// Name reports the policy name for results.
func (d *Driver) Name() string { return d.policy.Name() }

// Shares runs one full policy invocation over the views in vs, handing the
// policy vs's change log and clearing it, and returns the answer's share
// column, valid until the next Shares call: shares[i] belongs to the i-th
// view registered, zero for a job the policy did not serve. vs.Served lists
// the served views. Clearing the previous answer costs what it served. Views
// without a slot (ViewSet.Add) suit only a policy that keeps no per-job
// state. The round is the RoundExecuted event, and reads the wall clock only
// for a listening histogram sink.
func (d *Driver) Shares(now, capacity float64, vs *ViewSet) []float64 {
	vs.shares.Reset(len(vs.views))
	if d.probe != nil {
		d.probe.RoundExecuted(now, len(vs.views))
	}
	var start time.Time
	if d.hist != nil {
		start = time.Now()
	}
	changed, freed := vs.log()
	d.assigner.AssignDense(now, capacity, vs.views, vs.slots, changed, freed, &vs.shares)
	vs.clearLog()
	if d.hist != nil {
		d.hist.ObserveRoundLatency(time.Since(start).Seconds())
	}
	return vs.shares.Col()
}

// Observes reports whether the policy is stateful (it observes) and
// therefore needs skipped rounds replayed at all.
func (d *Driver) Observes() bool { return d.observer != nil }

// Observe replays the policy's per-round state mutation for a skipped round
// over the views in vs, handing the policy vs's change log and clearing it.
// Over an empty view set it hands on only departures: a substrate calls it
// when its last running job leaves, so the policy learns of the departure at
// the instant it happens, and with nothing logged it is a no-op.
func (d *Driver) Observe(now float64, vs *ViewSet) {
	if d.observer == nil || vs.Len() == 0 && len(vs.freed) == 0 {
		return
	}
	changed, freed := vs.log()
	d.observer.ObserveDense(now, vs.views, vs.slots, changed, freed)
	vs.clearLog()
}

// Horizon returns the earliest time strictly after now at which the policy's
// decision could change given the answer the latest Shares call over vs
// returned, or +Inf when the policy publishes no change points.
func (d *Driver) Horizon(now float64, vs *ViewSet) float64 {
	if d.hinter == nil {
		return math.Inf(1)
	}
	return d.hinter.HorizonDense(now, vs.views, vs.slots, &vs.shares)
}
