package obs

import (
	"fmt"
	"io"
	"sync"
)

// CounterSnapshot is an immutable copy of a Counters sink's aggregates.
// It is the form printed in the `lasmq sim`/`bench` summary and served by
// `lasmq live`'s debug endpoint.
type CounterSnapshot struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsAdmitted  int64 `json:"jobs_admitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	// PeakAdmissionBacklog is the high-water mark of submitted-but-not-yet-
	// admitted jobs.
	PeakAdmissionBacklog int64   `json:"peak_admission_backlog"`
	MaxAdmissionWait     float64 `json:"max_admission_wait"`

	TasksLaunched  int64 `json:"tasks_launched"`
	TasksCompleted int64 `json:"tasks_completed"`
	TaskFailures   int64 `json:"task_failures"`
	// SpecLaunches counts speculative copies launched; SpecWins counts the
	// ones that finished before the original attempt.
	SpecLaunches int64 `json:"spec_launches"`
	SpecWins     int64 `json:"spec_wins"`

	// Demotions[q] counts LAS_MQ demotions whose destination was queue q;
	// an adaptive refit's move upward is no demotion.
	Demotions []int64 `json:"demotions,omitempty"`
	Refits    int64   `json:"refits"`

	RoundsExecuted int64 `json:"rounds_executed"`
	RoundsSkipped  int64 `json:"rounds_skipped"`
	// RoundsObserved counts skipped rounds whose policy observes: all of
	// RoundsSkipped under a stateful policy, none under a stateless one.
	RoundsObserved int64 `json:"rounds_observed"`

	ArenaReuses int64 `json:"arena_reuses"`

	// SlabPeakLive is the largest per-run peak of live slab free-list
	// records seen; SlabRecycled sums mid-run slot recycles across runs.
	SlabPeakLive int64 `json:"slab_peak_live"`
	SlabRecycled int64 `json:"slab_recycled"`
}

// TotalDemotions sums demotions across destination queues.
func (s CounterSnapshot) TotalDemotions() int64 {
	var total int64
	for _, n := range s.Demotions {
		total += n
	}
	return total
}

// SkippedRoundRatio is skipped / (skipped + executed), or 0 with no rounds.
func (s CounterSnapshot) SkippedRoundRatio() float64 {
	total := s.RoundsExecuted + s.RoundsSkipped
	if total == 0 {
		return 0
	}
	return float64(s.RoundsSkipped) / float64(total)
}

// WriteSummary prints the snapshot as an aligned key/value block, the form
// `lasmq bench` and `lasmq sim` append after their result tables.
func (s CounterSnapshot) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "  jobs submitted/admitted/completed  %d / %d / %d\n",
		s.JobsSubmitted, s.JobsAdmitted, s.JobsCompleted)
	fmt.Fprintf(w, "  peak admission backlog             %d (max wait %.3f)\n",
		s.PeakAdmissionBacklog, s.MaxAdmissionWait)
	fmt.Fprintf(w, "  tasks launched/completed/failed    %d / %d / %d\n",
		s.TasksLaunched, s.TasksCompleted, s.TaskFailures)
	if s.SpecLaunches > 0 {
		fmt.Fprintf(w, "  speculative launches/wins          %d / %d\n", s.SpecLaunches, s.SpecWins)
	}
	if n := s.TotalDemotions(); n > 0 {
		fmt.Fprintf(w, "  queue demotions                    %d (per dest queue %v)\n", n, s.Demotions)
	}
	if s.Refits > 0 {
		fmt.Fprintf(w, "  threshold refits                   %d\n", s.Refits)
	}
	fmt.Fprintf(w, "  rounds executed/skipped            %d / %d (skip ratio %.3f, %d observed)\n",
		s.RoundsExecuted, s.RoundsSkipped, s.SkippedRoundRatio(), s.RoundsObserved)
	if s.ArenaReuses > 0 {
		fmt.Fprintf(w, "  arena reuses                       %d\n", s.ArenaReuses)
	}
	if s.SlabRecycled > 0 || s.SlabPeakLive > 0 {
		fmt.Fprintf(w, "  slab free-list peak live/recycled  %d / %d\n",
			s.SlabPeakLive, s.SlabRecycled)
	}
}

// Counters is an aggregating sink. It is safe for concurrent use: the live
// cluster's resource manager emits events while the HTTP debug endpoint
// snapshots them.
type Counters struct {
	emitter
	mu sync.Mutex
	s  CounterSnapshot
	// backlog tracks submitted - admitted to maintain the high-water mark.
	backlog int64
}

// NewCounters returns an empty Counters sink.
func NewCounters() *Counters {
	c := &Counters{}
	c.emitter = emitter{c}
	return c
}

// Snapshot returns a copy of the current aggregates.
func (c *Counters) Snapshot() CounterSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := c.s
	snap.Demotions = append([]int64(nil), c.s.Demotions...)
	return snap
}

// Record implements Sink.
func (c *Counters) Record(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.s
	switch ev.Kind {
	case KindJobSubmitted:
		s.JobsSubmitted++
		c.backlog++
		s.PeakAdmissionBacklog = max(s.PeakAdmissionBacklog, c.backlog)
	case KindJobAdmitted:
		s.JobsAdmitted++
		c.backlog--
		if ev.F > s.MaxAdmissionWait {
			s.MaxAdmissionWait = ev.F
		}
	case KindJobDone:
		s.JobsCompleted++
	case KindTaskStart:
		s.TasksLaunched++
		if ev.flag() {
			s.SpecLaunches++
		}
	case KindTaskDone:
		s.TasksCompleted++
		if ev.flag() {
			s.SpecWins++
		}
	case KindTaskFail:
		s.TaskFailures++
	case KindQueueDemote:
		if ev.C <= ev.B {
			break // a refit's move upward (see core.Adaptive)
		}
		for len(s.Demotions) <= int(ev.C) {
			s.Demotions = append(s.Demotions, 0)
		}
		s.Demotions[ev.C]++
	case KindThresholdRefit:
		s.Refits++
	case KindRoundExecuted:
		s.RoundsExecuted++
	case KindRoundSkipped:
		s.RoundsSkipped++
		if ev.flag() {
			s.RoundsObserved++
		}
	case KindArenaReuse:
		if ev.flag() {
			s.ArenaReuses++
		}
	case KindSlabStats:
		s.SlabPeakLive = max(s.SlabPeakLive, int64(ev.B))
		s.SlabRecycled += int64(ev.C)
	}
}
