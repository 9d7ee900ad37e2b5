// Package obs is the unified telemetry layer shared by the task-level
// engine, the fluid simulator, and the live mini-YARN cluster. It defines
// a typed Probe interface that substrates and schedulers call at the
// moments the paper's evaluation cares about (admission waits, LAS_MQ
// queue demotions, threshold refits, skipped scheduling rounds, arena
// reuse) plus three sinks: a deterministic JSONL event log (JSONL), a Chrome
// trace-event exporter (ChromeTrace), and an aggregating Counters sink.
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
	// work and skips it; observed reports whether policy observation
	// replay ran in its place.
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

// multi fans every event out to each attached probe in order.
type multi []Probe

// Multi combines probes into one; nil entries are dropped. It returns nil
// for an empty set and the probe itself for a single one, so the zero-
// overhead nil check still short-circuits downstream.
func Multi(probes ...Probe) Probe {
	kept := make(multi, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			kept = append(kept, p)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// FindCounters returns the first Counters sink reachable from p — p itself
// or a member of a (possibly nested) Multi, recursing so the shard fan-in
// built by ForShard stays transparent — so substrates can fold the final
// counter snapshot into their Result.
func FindCounters(p Probe) *Counters {
	switch v := p.(type) {
	case *Counters:
		return v
	case multi:
		for _, q := range v {
			if c := FindCounters(q); c != nil {
				return c
			}
		}
	}
	return nil
}

func (m multi) JobSubmitted(now float64, job int) {
	for _, p := range m {
		p.JobSubmitted(now, job)
	}
}

func (m multi) JobAdmitted(now float64, job int, waited float64) {
	for _, p := range m {
		p.JobAdmitted(now, job, waited)
	}
}

func (m multi) JobStarted(now float64, job int) {
	for _, p := range m {
		p.JobStarted(now, job)
	}
}

func (m multi) StageDone(now float64, job, stage int) {
	for _, p := range m {
		p.StageDone(now, job, stage)
	}
}

func (m multi) JobDone(now float64, job int, response float64) {
	for _, p := range m {
		p.JobDone(now, job, response)
	}
}

func (m multi) TaskStart(now float64, job, stage, task, containers int, speculative bool) {
	for _, p := range m {
		p.TaskStart(now, job, stage, task, containers, speculative)
	}
}

func (m multi) TaskDone(now float64, job, stage, task int, start float64, speculative bool) {
	for _, p := range m {
		p.TaskDone(now, job, stage, task, start, speculative)
	}
}

func (m multi) TaskFail(now float64, job, stage, task int, start float64) {
	for _, p := range m {
		p.TaskFail(now, job, stage, task, start)
	}
}

func (m multi) QueueEnter(now float64, job, queue int) {
	for _, p := range m {
		p.QueueEnter(now, job, queue)
	}
}

func (m multi) QueueDemote(now float64, job, from, to int, attained float64) {
	for _, p := range m {
		p.QueueDemote(now, job, from, to, attained)
	}
}

func (m multi) QueueExit(now float64, job, queue int) {
	for _, p := range m {
		p.QueueExit(now, job, queue)
	}
}

func (m multi) ThresholdRefit(now, first, step float64) {
	for _, p := range m {
		p.ThresholdRefit(now, first, step)
	}
}

func (m multi) RoundExecuted(now float64, jobs int) {
	for _, p := range m {
		p.RoundExecuted(now, jobs)
	}
}

func (m multi) RoundSkipped(now float64, observed bool) {
	for _, p := range m {
		p.RoundSkipped(now, observed)
	}
}

func (m multi) ArenaReuse(jobs, tasks int, reused bool) {
	for _, p := range m {
		p.ArenaReuse(jobs, tasks, reused)
	}
}

func (m multi) SlabStats(now float64, live, peak, recycled int) {
	for _, p := range m {
		p.SlabStats(now, live, peak, recycled)
	}
}
