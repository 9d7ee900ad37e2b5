package core

import (
	"cmp"
	"math"
	"slices"

	"lasmq/internal/mlq"
	"lasmq/internal/sched"
)

// This file is LAS_MQ's dense form (see internal/sched/dense.go): the same
// Algorithm 1 and 2 as the map-form methods in lasmq.go, with the per-job
// record kept in an array indexed by the substrate's slot instead of three
// maps keyed by job ID, and the grants added to the sparse answer by view
// index. It shares the per-queue ordered lists, their entry helpers and
// restoreOrder with the map form — on this path an ordEntry's id field holds
// the job's slot — and must make the same decisions, emit the same probe
// events in the same order, and answer QueueOf/QueueSizes alike: the map form
// is the oracle the tests hold it against. One instance runs on one path.

// slotRec is the dense path's record of the job holding a slot: what the map
// path spreads over tracked, seen and remaining.
type slotRec struct {
	id     int     // the owner
	seq    int     // with demand, the key the job's ordered-list entry is filed under
	demand float64 // read only under OrderByDemand, like trackRec.demand
	// unmet is the job's ready demand when the log last named it, less what
	// AssignDense granted since: serve decrements only a job it gives a
	// nonzero share, and the next call's log names that job again.
	unmet float64
	view  int32 // the job's index among the latest call's views
	queue int32
	live  bool
}

// exitRec is one departure of a sweep, held until the exits can be emitted
// in job-ID order.
type exitRec struct{ id, queue int }

// minSlotRecs is the smallest slot-record array: a streamed run's first round
// sees one job, and doubling up from one would cost every run several small
// allocations.
const minSlotRecs = 32

var (
	_ sched.DenseAssigner = (*LASMQ)(nil)
	_ sched.DenseHinter   = (*LASMQ)(nil)
	_ sched.DenseObserver = (*LASMQ)(nil)
)

// key is the (queue, demand, seq) under which r's entry is filed, in the
// form the entry helpers take.
func (r *slotRec) key() trackRec {
	return trackRec{queue: int(r.queue), demand: r.demand, seq: r.seq}
}

// recOf returns the record of the job behind view j, or nil when no sweep
// has seen that job at that slot — the map path's tracked miss.
func (s *LASMQ) recOf(slot int32, j sched.JobView) *slotRec {
	if int(slot) >= len(s.recs) {
		return nil
	}
	if r := &s.recs[slot]; r.live && r.id == j.ID() {
		return r
	}
	return nil
}

// orderKey is the demand a job's entry is filed under. The key is compared
// only under OrderByDemand, so otherwise the view is not asked.
func (s *LASMQ) orderKey(j sched.JobView) float64 {
	if s.cfg.OrderByDemand {
		return j.RemainingDemand()
	}
	return 0
}

// sweepDense is sweep over slot records, driven by the change log (see
// internal/sched/dense.go) in four steps: departures, from the freed slots;
// the changed views, in view order — arrival and binary insertion,
// demote-only queue update, in-place demand refresh, the unmet reset and the
// view index; a flat re-stamp of every record's view index from the slot
// column, when a job arrived or left and so the views may have moved; and
// the exits, emitted after the arrivals and demotions in job-ID order, as
// sweep does. Every view counts as changed when the log says so (changed is
// nil) and after a refit, which re-places every job.
func (s *LASMQ) sweepDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	s.dense = true
	s.exits = s.exits[:0]
	for _, slot := range freed {
		// A slot without a live record left before any sweep saw its job.
		if int(slot) < len(s.recs) && s.recs[slot].live {
			r := &s.recs[slot]
			s.removeEntry(int(r.queue), r.key(), int(slot))
			s.exits = append(s.exits, exitRec{r.id, int(r.queue)})
			r.live = false
		}
	}
	all := changed == nil || s.replace
	moved := len(freed) > 0
	n := len(changed)
	if all {
		n = len(jobs)
	}
	for k := 0; k < n; k++ {
		i := k
		if !all {
			i = int(changed[k])
		}
		j, slot := jobs[i], slots[i]
		if have := len(s.recs); int(slot) >= have {
			// Sized from the first round's view count, then geometrically.
			want := max(int(slot)+1, len(jobs), 2*have, minSlotRecs)
			s.recs = append(s.recs, make([]slotRec, want-have)...)
		}
		r := &s.recs[slot]
		id := j.ID()
		m := s.metric(j)
		if s.replace {
			// Re-placement under a refitted ladder: placed from attained
			// service, demoted from there, appended for restoreOrder to sort.
			from := s.levels.Placement(j.Attained())
			q := s.levels.Demote(from, m)
			if r.live {
				s.removeEntry(int(r.queue), r.key(), int(slot))
			}
			*r = slotRec{id: id, seq: j.Seq(), demand: s.orderKey(j), queue: int32(q), live: true}
			s.push(q, ordEntry{demand: r.demand, seq: r.seq, id: int(slot)})
			s.touched[q] = true
			if q != from && s.probe != nil {
				s.probe.QueueDemote(now, id, from, q, m)
			}
		} else if !r.live {
			// Arrival: place from the top queue and binary-insert.
			d, seq := s.orderKey(j), j.Seq()
			q := s.levels.Demote(0, m)
			s.insertEntry(q, ordEntry{demand: d, seq: seq, id: int(slot)})
			*r = slotRec{id: id, seq: seq, demand: d, queue: int32(q), live: true}
			moved = true
			if s.probe != nil {
				s.probe.QueueEnter(now, id, q)
			}
		} else if from, q := int(r.queue), s.levels.Demote(int(r.queue), m); q != from {
			// Demotion: move the entry between queue lists by its stored key.
			d := s.orderKey(j)
			s.removeEntry(from, r.key(), int(slot))
			s.insertEntry(q, ordEntry{demand: d, seq: r.seq, id: int(slot)})
			r.queue, r.demand = int32(q), d
			if s.probe != nil {
				s.probe.QueueDemote(now, id, from, q, m)
			}
		} else if s.cfg.OrderByDemand {
			if d := j.RemainingDemand(); d != r.demand {
				// Demand changed but the job stays put: refresh the key in
				// place and leave the re-sort to restoreOrder.
				if pos := s.findEntry(from, r.key(), int(slot)); pos >= 0 {
					s.ordered[from][pos].demand = d
				}
				s.touched[from] = true
				r.demand = d
			}
		}
		r.unmet = 0
		if d := j.ReadyDemand(); d > 0 {
			r.unmet = d
		}
		r.view = int32(i)
	}
	if moved && !all {
		for i, slot := range slots {
			s.recs[slot].view = int32(i)
		}
	}
	s.replace = false
	if len(s.exits) > 1 {
		slices.SortFunc(s.exits, func(a, b exitRec) int { return cmp.Compare(a.id, b.id) })
	}
	if s.probe != nil {
		for _, e := range s.exits {
			s.probe.QueueExit(now, e.id, e.queue)
		}
	}
}

// resetLevels installs a freshly fitted threshold ladder; the next sweep
// re-places every job under it (placement, not demote-only), as though the
// log named every view. Used by the adaptive wrapper's refit.
func (s *LASMQ) resetLevels(levels *mlq.Levels) {
	s.levels = levels
	s.replace = true
}

// ObserveDense implements sched.DenseObserver: Observe over slot records.
func (s *LASMQ) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	s.sweepDense(now, jobs, slots, changed, freed)
}

// ObserveHorizonDense implements sched.DenseObserver: ObserveHorizon with the
// rate bounds in a slice parallel to the views.
func (s *LASMQ) ObserveHorizonDense(now float64, jobs []sched.JobView, slots []int32, rates []float64) float64 {
	horizon := math.Inf(1)
	for i, j := range jobs {
		r := s.recOf(slots[i], j)
		if r == nil {
			return now // not yet observed; cannot bound
		}
		threshold := s.levels.Threshold(int(r.queue))
		if math.IsInf(threshold, 1) {
			continue // last queue: never demoted again
		}
		rate := rates[i]
		if rate <= 0 {
			continue // metric cannot grow
		}
		if math.IsInf(rate, 1) {
			return now
		}
		gap := threshold - s.metric(j)
		if gap <= 0 {
			return now // sitting on the threshold; next growth demotes
		}
		if t := now + gap/rate; t < horizon {
			horizon = t
		}
	}
	return horizon
}

// AssignDense implements sched.DenseAssigner: AssignInto over slot records,
// operation for operation — the same budgets, the same min(budget, unmet)
// grants in queue order, the same leftover spill.
func (s *LASMQ) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	k := s.levels.Queues()
	s.sweepDense(now, jobs, slots, changed, freed)
	s.restoreOrder()

	// Algorithm 2 line 1: split capacity across non-empty queues by weight.
	weights := s.weights[:k]
	var totalWeight float64
	w := 1.0
	for i := 0; i < k; i++ {
		weights[i] = 0
		if len(s.ordered[i]) > 0 {
			weights[i] = w
			totalWeight += w
		}
		w /= s.cfg.QueueWeightDecay
	}
	if totalWeight == 0 {
		return
	}

	// Algorithm 2 lines 3-12: within each queue's budget, serve jobs one by
	// one in queue order; line 13: spill what is left to any job with unmet
	// demand, highest-priority queues first.
	leftover := 0.0
	for i := 0; i < k; i++ {
		leftover += s.serve(s.ordered[i], capacity*weights[i]/totalWeight, 0, shares)
	}
	for i := 0; i < k && leftover > 1e-12; i++ {
		leftover = s.serve(s.ordered[i], leftover, 1e-12, shares)
	}
}

// serve grants amount to the list's jobs with unmet demand, one by one in
// list order, until no more than floor is left, and returns what is left.
func (s *LASMQ) serve(list []ordEntry, amount, floor float64, shares *sched.Shares) float64 {
	for _, e := range list {
		if amount <= floor {
			break
		}
		r := &s.recs[e.id]
		if r.unmet <= 0 {
			continue
		}
		// The builtin min treats NaN and signed zeros as math.Min does.
		x := min(amount, r.unmet)
		shares.Add(int(r.view), x)
		r.unmet -= x
		amount -= x
	}
	return amount
}

// HorizonDense implements sched.DenseHinter: Horizon over the served views
// alone, in view order — only they gain service, and an unserved job is one
// Horizon skips.
func (s *LASMQ) HorizonDense(now float64, jobs []sched.JobView, slots []int32, shares *sched.Shares) float64 {
	horizon := math.Inf(1)
	col := shares.Col()
	for _, i := range shares.Served() {
		rate := col[i]
		if rate <= 0 {
			continue
		}
		j := jobs[i]
		r := s.recOf(slots[i], j)
		if r == nil {
			continue
		}
		threshold := s.levels.Threshold(int(r.queue))
		if math.IsInf(threshold, 1) {
			continue // last queue: never demoted again
		}
		gap := threshold - s.metric(j)
		t := now + math.Max(gap, 0)/rate
		if t <= now {
			// The metric sits exactly on the threshold; a strictly positive
			// nudge lets it cross so the next round demotes the job.
			t = now + 1e-9
		}
		if t < horizon {
			horizon = t
		}
	}
	return horizon
}
