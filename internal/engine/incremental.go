package engine

import "math"

// This file implements the engine's incremental scheduling rounds: the
// short-circuit that skips policy invocation for rounds that provably cannot
// launch a task, and the conservative metric-growth bounds that let
// sched.ObserveHinter policies (LAS_MQ) skip even the state-observation call
// until the next possible queue demotion.
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
// round through the kernel driver. Stateless policies need nothing at all.
// For policies that can bound their next state change (sched.ObserveHinter),
// the Observe call itself is skipped while the schedulable job set is
// unchanged and no attempt has ended since the horizon was computed (the
// driver is not dirty — arrivals that stay in the admission queue do not
// invalidate it) and the current time is strictly before the horizon. The
// engine supplies the metric-rate bounds below; the gating itself lives in
// substrate.Driver.
func (s *sim) observeRound() {
	due := s.driver.ObservationDue(s.now)
	if s.probe != nil {
		s.probe.RoundSkipped(s.now, due)
	}
	if !due {
		return
	}
	s.collectViews(s.driver.NeedsRates())
	s.driver.Observe(s.now, &s.vs)
}

// metricRateBound returns an upper bound, valid until the next simulator
// event, on the growth rate of both decision metrics a policy may demote on:
// exactly attained service (which grows at the job's container usage) and
// the stage-aware estimate. Overestimating only shortens the observation
// horizon, never misses a demotion.
func (s *sim) metricRateBound(js *jobState) float64 {
	rate := float64(js.usage)
	var est float64
	for _, i := range js.activeStages {
		b := stageEstRateBound(&js.stages[i], s.now)
		if math.IsInf(b, 1) {
			return b
		}
		est += b
	}
	if est > rate {
		rate = est
	}
	return rate
}

// stageEstRateBound bounds the growth rate of one active stage's
// contribution to the stage-aware estimate, attained/progress, while no
// event occurs. Between events attained grows linearly at u = usage
// containers and raw progress at r = invDurSum/n, so the derivative is
// (u·p − A·r)/p² with a constant numerator and a growing denominator: when
// positive it is maximal right now. Once progress clamps at 1 the estimate
// reverts to plain attained service and grows at u.
func stageEstRateBound(st *stageState, now float64) float64 {
	u := float64(st.usage)
	n := float64(len(st.tasks))
	r := st.invDurSum / n
	praw := (float64(st.doneTasks) + now*st.invDurSum - st.startInvDurSum) / n
	if praw >= 1 {
		return u // progress stays clamped at 1; estimate == attained
	}
	if praw <= 0 {
		if r > 0 {
			return math.Inf(1) // the estimate blows up as progress leaves zero
		}
		return u // progress frozen at zero; estimate == attained
	}
	bound := u // covers the regime after progress clamps at 1
	if c := u*praw - st.attained(now)*r; c > 0 {
		if b := c / (praw * praw); b > bound {
			bound = b
		}
	}
	return bound
}
