// Package obs is the unified telemetry layer shared by the task-level
// engine, the fluid simulator, and the live mini-YARN cluster. It defines
// a typed Probe interface that substrates and schedulers call at the
// moments the paper's evaluation cares about (admission waits, LAS_MQ
// queue demotions, threshold refits, skipped scheduling rounds, arena
// reuse), and one event vocabulary its sinks speak: each Probe call is
// packed into a 48-byte Event by an embedded emitter and handed to the
// sink's Record, one switch per sink. The sinks are a deterministic JSONL
// event log (JSONL), a Chrome trace-event exporter (ChromeTrace), the
// aggregating Counters and Histograms, the windowed Series (jobs, containers
// and LAS_MQ queue depths over virtual time), and the lock-free
// flight-recorder Ring, which Drains its records straight into another sink. Multi fans one stream out to several
// sinks, and Find looks a sink up behind it.
//
// Zero-overhead contract: every emission site is guarded by a nil check on
// a concrete interface field and passes only scalar arguments, so a nil
// probe costs one predicted branch — no allocations, no boxing. Attached
// probes observe but never mutate simulation state, so a probed run is
// byte-identical to an unprobed one (enforced by differential tests).
package obs

// Probe receives simulation and scheduler events. All timestamps are in
// virtual time (seconds in the engine/fluid substrates; scaled wall-clock
// seconds in the live cluster). Implementations must treat every call as
// read-only with respect to the simulation: the same run with and without
// a probe attached must produce byte-identical results.
//
// Embed Nop to implement only the events a sink cares about.
type Probe interface {
	// JobSubmitted fires when a job arrives at the admission queue.
	JobSubmitted(now float64, job int)
	// JobAdmitted fires when the admission queue releases a job to the
	// scheduler; waited is the time spent queued (now - arrival).
	JobAdmitted(now float64, job int, waited float64)
	// JobStarted fires when a job's first task attempt launches.
	JobStarted(now float64, job int)
	// StageDone fires when every task of a stage has completed.
	StageDone(now float64, job, stage int)
	// JobDone fires when the last stage completes; response is the job's
	// response time (now - arrival).
	JobDone(now float64, job int, response float64)

	// TaskStart fires per launched attempt (including speculative copies).
	TaskStart(now float64, job, stage, task, containers int, speculative bool)
	// TaskDone fires when an attempt completes its task; speculative is
	// true when a speculative copy beat the original (a spec-exec win).
	TaskDone(now float64, job, stage, task int, start float64, speculative bool)
	// TaskFail fires when an attempt fails and the task is re-queued.
	TaskFail(now float64, job, stage, task int, start float64)

	// QueueEnter fires when LAS_MQ first places a job in a queue level.
	QueueEnter(now float64, job, queue int)
	// QueueDemote fires on a demote-only queue move; attained is the
	// service metric that crossed the threshold.
	QueueDemote(now float64, job, from, to int, attained float64)
	// QueueExit fires when a job departs the multilevel queue.
	QueueExit(now float64, job, queue int)
	// ThresholdRefit fires when Adaptive refits the demotion ladder;
	// first and step describe the new geometric threshold ladder.
	ThresholdRefit(now float64, first, step float64)

	// RoundExecuted fires when the driver runs a full scheduling round
	// over jobs active views.
	RoundExecuted(now float64, jobs int)
	// RoundSkipped fires when a substrate proves a round cannot launch
	// work and skips it; observed reports whether the policy observes — a
	// stateful policy's state change is replayed in every skipped round's
	// place, a stateless policy's never.
	RoundSkipped(now float64, observed bool)

	// ArenaReuse fires once per run with slab-arena statistics: the job
	// and task counts carved, and whether a pooled arena was reused.
	ArenaReuse(jobs, tasks int, reused bool)
	// SlabStats fires once per run (or per shard of a sharded run) with the
	// run's slab free-list statistics: records still live at the end, the
	// peak live high-water mark, and how many allocations were served by
	// recycling a completed record's slot mid-run.
	SlabStats(now float64, live, peak, recycled int)
}

// ProbeSetter is implemented by schedulers (and scheduler wrappers) that
// emit probe events. substrate.Driver forwards its probe to the policy
// through this interface, so wrapping or embedding a policy keeps the
// telemetry path intact.
type ProbeSetter interface {
	SetProbe(Probe)
}

// Nop implements Probe with no-ops. Sinks embed it so they only spell out
// the events they consume.
type Nop struct{}

func (Nop) JobSubmitted(float64, int)                      {}
func (Nop) JobAdmitted(float64, int, float64)              {}
func (Nop) JobStarted(float64, int)                        {}
func (Nop) StageDone(float64, int, int)                    {}
func (Nop) JobDone(float64, int, float64)                  {}
func (Nop) TaskStart(float64, int, int, int, int, bool)    {}
func (Nop) TaskDone(float64, int, int, int, float64, bool) {}
func (Nop) TaskFail(float64, int, int, int, float64)       {}
func (Nop) QueueEnter(float64, int, int)                   {}
func (Nop) QueueDemote(float64, int, int, int, float64)    {}
func (Nop) QueueExit(float64, int, int)                    {}
func (Nop) ThresholdRefit(float64, float64, float64)       {}
func (Nop) RoundExecuted(float64, int)                     {}
func (Nop) RoundSkipped(float64, bool)                     {}
func (Nop) ArenaReuse(int, int, bool)                      {}
func (Nop) SlabStats(float64, int, int, int)               {}

// Sink is a Probe whose events arrive as packed Events: an embedded emitter
// packs each Probe call and hands it to Record, the one place a sink reads
// the vocabulary. A drained Ring and Multi call Record directly.
type Sink interface {
	Probe
	Record(Event)
}

// Event is one probe event packed into a fixed-size scalar record: no
// interface boxing, no per-event allocation, one record per cache line once
// padded into a ring slot. Kind selects the probe method; T is the event's
// virtual timestamp; F and G carry float payloads (waited, response, start,
// attained, first/step); A..D carry integer payloads (job, stage, task,
// containers, queue indices, counts); Flags carries the event's booleans.
// Sinks take it by value: a pointer through the Sink interface escapes.
type Event struct {
	T     float64 // virtual time ("now"); unused by ArenaReuse
	F     float64 // first float payload (waited / response / start / attained / first)
	G     float64 // second float payload (ThresholdRefit step)
	A     int32   // first int payload (job / pending / jobs / live)
	B     int32   // second int payload (stage / queue / from / tasks / peak)
	C     int32   // third int payload (task / to / recycled)
	D     int32   // fourth int payload (containers)
	Kind  uint8
	Flags uint8
	_     [6]byte
}

// Event kinds, one per Probe method.
const (
	KindJobSubmitted uint8 = iota + 1
	KindJobAdmitted
	KindJobStarted
	KindStageDone
	KindJobDone
	KindTaskStart
	KindTaskDone
	KindTaskFail
	KindQueueEnter
	KindQueueDemote
	KindQueueExit
	KindThresholdRefit
	KindRoundExecuted
	KindRoundSkipped
	KindArenaReuse
	KindSlabStats
)

// FlagTrue is the single boolean payload bit: speculative (TaskStart,
// TaskDone), observed (RoundSkipped), reused (ArenaReuse).
const FlagTrue uint8 = 1

// flag reports the event's boolean payload.
func (e Event) flag() bool { return e.Flags&FlagTrue != 0 }

func boolFlag(b bool) uint8 {
	if b {
		return FlagTrue
	}
	return 0
}

// emitter implements Probe for a sink by packing every call into an Event
// and recording it into sink. Each sink embeds one, and its constructor
// points it at the sink itself. No method allocates (enforced by the
// probe-gate zero-alloc tests).
type emitter struct{ sink Sink }

func (e emitter) JobSubmitted(now float64, job int) {
	e.sink.Record(Event{Kind: KindJobSubmitted, T: now, A: int32(job)})
}

func (e emitter) JobAdmitted(now float64, job int, waited float64) {
	e.sink.Record(Event{Kind: KindJobAdmitted, T: now, A: int32(job), F: waited})
}

func (e emitter) JobStarted(now float64, job int) {
	e.sink.Record(Event{Kind: KindJobStarted, T: now, A: int32(job)})
}

func (e emitter) StageDone(now float64, job, stage int) {
	e.sink.Record(Event{Kind: KindStageDone, T: now, A: int32(job), B: int32(stage)})
}

func (e emitter) JobDone(now float64, job int, response float64) {
	e.sink.Record(Event{Kind: KindJobDone, T: now, A: int32(job), F: response})
}

func (e emitter) TaskStart(now float64, job, stage, task, containers int, speculative bool) {
	e.sink.Record(Event{Kind: KindTaskStart, T: now, A: int32(job), B: int32(stage),
		C: int32(task), D: int32(containers), Flags: boolFlag(speculative)})
}

func (e emitter) TaskDone(now float64, job, stage, task int, start float64, speculative bool) {
	e.sink.Record(Event{Kind: KindTaskDone, T: now, A: int32(job), B: int32(stage),
		C: int32(task), F: start, Flags: boolFlag(speculative)})
}

func (e emitter) TaskFail(now float64, job, stage, task int, start float64) {
	e.sink.Record(Event{Kind: KindTaskFail, T: now, A: int32(job), B: int32(stage),
		C: int32(task), F: start})
}

func (e emitter) QueueEnter(now float64, job, queue int) {
	e.sink.Record(Event{Kind: KindQueueEnter, T: now, A: int32(job), B: int32(queue)})
}

func (e emitter) QueueDemote(now float64, job, from, to int, attained float64) {
	e.sink.Record(Event{Kind: KindQueueDemote, T: now, A: int32(job), B: int32(from),
		C: int32(to), F: attained})
}

func (e emitter) QueueExit(now float64, job, queue int) {
	e.sink.Record(Event{Kind: KindQueueExit, T: now, A: int32(job), B: int32(queue)})
}

func (e emitter) ThresholdRefit(now, first, step float64) {
	e.sink.Record(Event{Kind: KindThresholdRefit, T: now, F: first, G: step})
}

func (e emitter) RoundExecuted(now float64, jobs int) {
	e.sink.Record(Event{Kind: KindRoundExecuted, T: now, A: int32(jobs)})
}

func (e emitter) RoundSkipped(now float64, observed bool) {
	e.sink.Record(Event{Kind: KindRoundSkipped, T: now, Flags: boolFlag(observed)})
}

func (e emitter) ArenaReuse(jobs, tasks int, reused bool) {
	e.sink.Record(Event{Kind: KindArenaReuse, A: int32(jobs), B: int32(tasks), Flags: boolFlag(reused)})
}

func (e emitter) SlabStats(now float64, live, peak, recycled int) {
	e.sink.Record(Event{Kind: KindSlabStats, T: now, A: int32(live), B: int32(peak), C: int32(recycled)})
}

// multi records every event into each member sink in order.
type multi struct {
	emitter
	sinks []Sink
}

// Record implements Sink.
func (m *multi) Record(ev Event) {
	for _, s := range m.sinks {
		s.Record(ev)
	}
}

// Multi combines sinks into one; nil entries are dropped. It returns nil
// for an empty set and the sink itself for a single one, so the zero-
// overhead nil check still short-circuits downstream.
func Multi(sinks ...Sink) Sink {
	m := &multi{sinks: make([]Sink, 0, len(sinks))}
	for _, s := range sinks {
		if s != nil {
			m.sinks = append(m.sinks, s)
		}
	}
	switch len(m.sinks) {
	case 0:
		return nil
	case 1:
		return m.sinks[0]
	}
	m.emitter = emitter{m}
	return m
}

// Find returns the first sink of type T reachable from p — p itself or a
// member of a (possibly nested) Multi. Substrates resolve their sinks
// through it once per run.
func Find[T Sink](p Probe) (T, bool) {
	switch v := p.(type) {
	case T:
		return v, true
	case *multi:
		for _, s := range v.sinks {
			if t, ok := Find[T](s); ok {
				return t, true
			}
		}
	}
	var zero T
	return zero, false
}
