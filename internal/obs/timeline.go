package obs

// QueueSample is one snapshot of LAS_MQ's per-queue job occupancy.
type QueueSample struct {
	Time  float64
	Sizes []int
}

// QueueTimeline is a sink recording LAS_MQ's per-queue occupancy over
// virtual time — instrumentation for watching the multilevel queue at work
// (small jobs churning through the top queues, large jobs settling at the
// bottom). It keeps the occupancy from queue enter/demote/exit events and
// takes at most one sample per `every` units of virtual time, at executed
// scheduling rounds.
//
// A sample shows the queues after the round's policy invocation, but
// RoundExecuted fires before it: the sample due at a round is taken at the
// next round event (a skipped round fires before its observation replay
// moves any job) or by Samples.
type QueueTimeline struct {
	emitter
	every   float64
	last    float64
	due     bool // a sample at time last is still to be taken
	sizes   []int
	samples []QueueSample
}

// NewQueueTimeline returns a timeline over queues levels sampling at most
// every `every` units of virtual time (0 samples every executed round).
func NewQueueTimeline(queues int, every float64) *QueueTimeline {
	q := &QueueTimeline{every: every, last: -1, sizes: make([]int, queues)}
	q.emitter = emitter{q}
	return q
}

// Record implements Sink.
func (q *QueueTimeline) Record(ev Event) {
	switch ev.Kind {
	case KindQueueEnter:
		q.sizes[ev.B]++
	case KindQueueDemote:
		q.sizes[ev.B]--
		q.sizes[ev.C]++
	case KindQueueExit:
		q.sizes[ev.B]--
	case KindRoundSkipped:
		q.take()
	case KindRoundExecuted:
		q.take()
		if q.last < 0 || ev.T >= q.last+q.every {
			q.last, q.due = ev.T, true
		}
	}
}

// take records the sample owed by the last executed round, if any.
func (q *QueueTimeline) take() {
	if q.due {
		q.due = false
		q.samples = append(q.samples, QueueSample{Time: q.last, Sizes: append([]int(nil), q.sizes...)})
	}
}

// Samples returns the recorded snapshots in time order.
func (q *QueueTimeline) Samples() []QueueSample {
	q.take()
	return q.samples
}
