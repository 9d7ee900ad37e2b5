package schedtest

import (
	"fmt"
	"math"

	"lasmq/internal/obs"
)

// QueueLedger is a probe that follows each job's queue level through a
// multilevel policy's queue events (QueueEnter, QueueDemote, QueueExit) and
// records the first event that breaks the ledger:
//
//   - a job enters while it holds a level, or moves or exits while it holds
//     none;
//   - a move starts anywhere but the job's level, or ends where it starts;
//   - an exit names a level the job does not hold, or comes at any time but
//     the job's JobDone: the policy learns of a departure at once;
//   - a job still holds a level when the run is over (Err).
//
// Unlike DemoteOnly it allows a move upward, which an adaptive refit makes,
// and a policy without queues, which emits no queue event, keeps it. It is an
// obs.Sink, so it can be one of an obs.Multi. The zero value is ready.
type QueueLedger struct {
	obs.Nop
	// Enters, Downs and Ups count the entries and the moves down and up.
	Enters, Downs, Ups int

	level  map[int]int
	done   map[int]float64 // JobDone times
	events int
	err    error
}

// Err returns the first event that broke the ledger, or, read once the run is
// over, the lowest job ID still holding a level, or nil.
func (l *QueueLedger) Err() error {
	if l.err == nil && len(l.level) > 0 {
		first := math.MaxInt
		for job := range l.level {
			first = min(first, job)
		}
		return fmt.Errorf("job %d (of %d) still holds queue %d at the end of the run", first, len(l.level), l.level[first])
	}
	return l.err
}

// Events is the number of queue events the ledger checked.
func (l *QueueLedger) Events() int { return l.events }

// held counts a queue event and returns the level job holds and whether it
// holds one.
func (l *QueueLedger) held(job int) (int, bool) {
	if l.level == nil {
		l.level = make(map[int]int)
	}
	l.events++
	q, ok := l.level[job]
	return q, ok
}

func (l *QueueLedger) fail(now float64, format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("t=%v: "+format, append([]any{now}, args...)...)
	}
}

// QueueEnter implements obs.Probe.
func (l *QueueLedger) QueueEnter(now float64, job, queue int) {
	if q, ok := l.held(job); ok {
		l.fail(now, "job %d enters queue %d while in queue %d", job, queue, q)
	}
	l.level[job] = queue
	l.Enters++
}

// QueueDemote implements obs.Probe: a move, down or up.
func (l *QueueLedger) QueueDemote(now float64, job, from, to int, _ float64) {
	q, ok := l.held(job)
	switch {
	case !ok:
		l.fail(now, "job %d moves from queue %d while in no queue", job, from)
	case from != q:
		l.fail(now, "job %d moves from queue %d while in queue %d", job, from, q)
	case to == from:
		l.fail(now, "job %d moves from queue %d to itself", job, from)
	}
	if to > from {
		l.Downs++
	} else {
		l.Ups++
	}
	l.level[job] = to
}

// QueueExit implements obs.Probe.
func (l *QueueLedger) QueueExit(now float64, job, queue int) {
	if q, ok := l.held(job); !ok || q != queue {
		l.fail(now, "job %d exits queue %d while in queue %d (held: %v)", job, queue, q, ok)
	}
	if done, ok := l.done[job]; !ok || done != now {
		l.fail(now, "job %d exits its queue, not at its completion (done: %v at %v)", job, ok, done)
	}
	delete(l.level, job)
}

// JobDone implements obs.Probe.
func (l *QueueLedger) JobDone(now float64, job int, _ float64) {
	if l.done == nil {
		l.done = make(map[int]float64)
	}
	l.done[job] = now
}

// Record implements obs.Sink.
func (l *QueueLedger) Record(ev obs.Event) {
	switch job := int(ev.A); ev.Kind {
	case obs.KindQueueEnter:
		l.QueueEnter(ev.T, job, int(ev.B))
	case obs.KindQueueDemote:
		l.QueueDemote(ev.T, job, int(ev.B), int(ev.C), ev.F)
	case obs.KindQueueExit:
		l.QueueExit(ev.T, job, int(ev.B))
	case obs.KindJobDone:
		l.JobDone(ev.T, job, ev.F)
	}
}

// DemoteOnly is a probe that holds LAS_MQ's queue events to the paper's
// demote-only rule (Algorithm 1, PAPER.md design point 1) over a ladder of
// Queues queues with thresholds FirstThreshold·Stepⁱ. It keeps the
// QueueLedger and records, besides the first event that breaks the ledger,
// the first move that breaks the rule:
//
//   - a move does not take the job down;
//   - the metric a demotion reports does not strictly exceed the threshold
//     of the level above its destination, or exceeds the destination's own:
//     a job lands in the first queue whose threshold its metric does not
//     exceed.
//
// Attach it to a policy whose ladder never changes: Adaptive's refit
// re-places jobs, which is no demotion. It is an obs.Sink, so it can be one
// of an obs.Multi.
type DemoteOnly struct {
	QueueLedger
	Queues         int
	FirstThreshold float64
	Step           float64
}

// Demotions is the number of demotions the probe checked.
func (d *DemoteOnly) Demotions() int { return d.Downs + d.Ups }

// QueueDemote implements obs.Probe.
func (d *DemoteOnly) QueueDemote(now float64, job, from, to int, attained float64) {
	d.QueueLedger.QueueDemote(now, job, from, to, attained)
	switch {
	case to <= from:
		d.fail(now, "job %d moved from queue %d to queue %d, not down", job, from, to)
	case !(attained > threshold(d.Queues, d.FirstThreshold, d.Step, to-1)):
		d.fail(now, "job %d demoted to queue %d at %v, not above queue %d's threshold %v",
			job, to, attained, to-1, threshold(d.Queues, d.FirstThreshold, d.Step, to-1))
	case attained > threshold(d.Queues, d.FirstThreshold, d.Step, to):
		d.fail(now, "job %d demoted to queue %d at %v, above that queue's threshold %v",
			job, to, attained, threshold(d.Queues, d.FirstThreshold, d.Step, to))
	}
}

// Record implements obs.Sink.
func (d *DemoteOnly) Record(ev obs.Event) {
	if ev.Kind == obs.KindQueueDemote {
		d.QueueDemote(ev.T, int(ev.A), int(ev.B), int(ev.C), ev.F)
		return
	}
	d.QueueLedger.Record(ev)
}
