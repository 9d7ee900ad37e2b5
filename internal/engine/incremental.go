package engine

// This file implements the engine's incremental scheduling rounds: the
// short-circuit that skips policy invocation for rounds that provably cannot
// launch a task, replaying only a stateful policy's state change in their
// place.
//
// Soundness argument. schedule() only mutates the simulation through task
// launches (and, transitively, the events they enqueue); reservations are
// local variables of a single round. Therefore a round in which no launch is
// possible is observationally identical to no round at all — EXCEPT for the
// policy's internal state mutation performed inside Assign (LAS_MQ demotes
// jobs across queue thresholds and drops departed jobs every time it is
// invoked). sched.Observer captures exactly that mutation, so replaying it
// keeps the policy's state trajectory — and hence every later allocation —
// bit-for-bit identical to the full-reschedule mode. The failure-injection
// RNG is only consumed by launchAttempt, so skipped rounds leave the random
// stream untouched as well.

// canSkipRound reports whether the current round provably cannot launch any
// task attempt, making the policy's allocation dead output:
//
//   - the cluster is saturated (every container occupied), so neither the
//     deficit pass, the work-conserving backfill, nor speculation can place
//     anything; or
//   - no admitted job has a ready task and speculation is off, so there is
//     nothing to place (speculation can duplicate running tasks even when
//     nothing is ready, so it forces a full round).
func (s *sim) canSkipRound() bool {
	if s.usedSlots == s.cfg.Containers {
		return true
	}
	return s.readySlots == 0 && !s.cfg.Speculation
}

// observeRound replays the policy's per-round state mutation for a skipped
// round through the kernel driver: a stateful policy observes every skipped
// round, and a stateless one needs nothing at all.
func (s *sim) observeRound() {
	observes := s.driver.Observes()
	if s.probe != nil {
		s.probe.RoundSkipped(s.now, observes)
	}
	if !observes {
		return
	}
	s.collectViews()
	s.driver.Observe(s.now, &s.vs)
}
