package schedtest

import (
	"fmt"
	"math"

	"lasmq/internal/obs"
)

// DemoteOnly is a probe that holds LAS_MQ's queue events to the paper's
// demote-only rule (Algorithm 1, PAPER.md design point 1) over a ladder of
// Queues queues with thresholds FirstThreshold·Stepⁱ. It follows each job's
// level from QueueEnter through QueueDemote to QueueExit and records the
// first event that breaks the rule:
//
//   - a job enters while it holds a level, or moves or exits while it holds
//     none;
//   - a demotion starts anywhere but the job's level, or does not move it
//     down;
//   - the metric a demotion reports does not strictly exceed the threshold
//     of the level above its destination, or exceeds the destination's own:
//     a job lands in the first queue whose threshold its metric does not
//     exceed;
//   - an exit names a level the job does not hold, or comes at any time but
//     the job's JobDone: the policy learns of a departure at once;
//   - a job still holds a level when the run is over (Err).
//
// Attach it to a policy whose ladder never changes: Adaptive's refit
// re-places jobs, which is no demotion. It is an obs.Sink, so it can be one
// of an obs.Multi.
type DemoteOnly struct {
	obs.Nop
	Queues         int
	FirstThreshold float64
	Step           float64

	level     map[int]int
	done      map[int]float64 // JobDone times
	events    int
	demotions int
	err       error
}

// Err returns the first event that broke the rule, or, read once the run is
// over, the lowest job ID still holding a level, or nil.
func (d *DemoteOnly) Err() error {
	if d.err == nil && len(d.level) > 0 {
		first := math.MaxInt
		for job := range d.level {
			first = min(first, job)
		}
		return fmt.Errorf("job %d (of %d) still holds queue %d at the end of the run", first, len(d.level), d.level[first])
	}
	return d.err
}

// Events is the number of queue events the probe checked.
func (d *DemoteOnly) Events() int { return d.events }

// Demotions is the number of demotions the probe checked.
func (d *DemoteOnly) Demotions() int { return d.demotions }

// held counts a queue event and returns the level job holds and whether it
// holds one.
func (d *DemoteOnly) held(job int) (int, bool) {
	if d.level == nil {
		d.level = make(map[int]int)
	}
	d.events++
	q, ok := d.level[job]
	return q, ok
}

func (d *DemoteOnly) fail(now float64, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("t=%v: "+format, append([]any{now}, args...)...)
	}
}

// QueueEnter implements obs.Probe.
func (d *DemoteOnly) QueueEnter(now float64, job, queue int) {
	if q, ok := d.held(job); ok {
		d.fail(now, "job %d enters queue %d while in queue %d", job, queue, q)
	}
	d.level[job] = queue
}

// QueueDemote implements obs.Probe.
func (d *DemoteOnly) QueueDemote(now float64, job, from, to int, attained float64) {
	d.demotions++
	q, ok := d.held(job)
	switch {
	case !ok:
		d.fail(now, "job %d demoted from queue %d while in no queue", job, from)
	case from != q:
		d.fail(now, "job %d demoted from queue %d while in queue %d", job, from, q)
	case to <= from:
		d.fail(now, "job %d moved from queue %d to queue %d, not down", job, from, to)
	case !(attained > threshold(d.Queues, d.FirstThreshold, d.Step, to-1)):
		d.fail(now, "job %d demoted to queue %d at %v, not above queue %d's threshold %v",
			job, to, attained, to-1, threshold(d.Queues, d.FirstThreshold, d.Step, to-1))
	case attained > threshold(d.Queues, d.FirstThreshold, d.Step, to):
		d.fail(now, "job %d demoted to queue %d at %v, above that queue's threshold %v",
			job, to, attained, threshold(d.Queues, d.FirstThreshold, d.Step, to))
	}
	d.level[job] = to
}

// QueueExit implements obs.Probe.
func (d *DemoteOnly) QueueExit(now float64, job, queue int) {
	if q, ok := d.held(job); !ok || q != queue {
		d.fail(now, "job %d exits queue %d while in queue %d (held: %v)", job, queue, q, ok)
	}
	if done, ok := d.done[job]; !ok || done != now {
		d.fail(now, "job %d exits its queue, not at its completion (done: %v at %v)", job, ok, done)
	}
	delete(d.level, job)
}

// JobDone implements obs.Probe.
func (d *DemoteOnly) JobDone(now float64, job int, _ float64) {
	if d.done == nil {
		d.done = make(map[int]float64)
	}
	d.done[job] = now
}

// Record implements obs.Sink.
func (d *DemoteOnly) Record(ev obs.Event) {
	switch job := int(ev.A); ev.Kind {
	case obs.KindQueueEnter:
		d.QueueEnter(ev.T, job, int(ev.B))
	case obs.KindQueueDemote:
		d.QueueDemote(ev.T, job, int(ev.B), int(ev.C), ev.F)
	case obs.KindQueueExit:
		d.QueueExit(ev.T, job, int(ev.B))
	case obs.KindJobDone:
		d.JobDone(ev.T, job, ev.F)
	}
}
