package core

import (
	"cmp"
	"math"
	"slices"

	"lasmq/internal/sched"
)

// This file is LAS_MQ's dense form (see internal/sched/dense.go): the same
// Algorithm 1 and 2 as the map-form methods in lasmq.go, with the per-job
// record kept in an array indexed by the substrate's slot instead of three
// maps keyed by job ID, and the shares written into a slice parallel to the
// views. It shares the per-queue ordered lists, their entry helpers and
// restoreOrder with the map form — on this path an ordEntry's id field holds
// the job's slot — and must make the same decisions, emit the same probe
// events in the same order, and answer QueueOf/QueueSizes alike: the map form
// is the oracle the tests hold it against. One instance runs on one path.

// slotRec is the dense path's record of the job holding a slot: what the map
// path spreads over tracked, seen and remaining.
type slotRec struct {
	id     int     // the owner; a view with another ID means the slot was reissued
	seq    int     // with demand, the key the job's ordered-list entry is filed under
	demand float64 // read only under OrderByDemand, like trackRec.demand
	unmet  float64 // unmet ready demand: AssignDense's scratch
	epoch  uint32  // the sweep that last saw the job
	view   int32   // the job's index among that sweep's views
	queue  int32
	live   bool
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

// sweepDense is sweep over slot records: demote-only queue updates, binary
// insertion of arrivals and demoted jobs, in-place demand refresh, and removal
// of departed jobs — a job departs when a sweep does not see it, or sees its
// slot under another job's ID. Arrivals and demotions are emitted in view
// order, exits after them in job-ID order, as sweep does. With unmet set the
// walk also notes every job's ready demand for AssignDense.
func (s *LASMQ) sweepDense(now float64, jobs []sched.JobView, slots []int32, unmet bool) {
	s.dense = true
	s.epoch++
	s.exits = s.exits[:0]
	for i, j := range jobs {
		slot := slots[i]
		if have := len(s.recs); int(slot) >= have {
			// Sized from the first round's view count, then geometrically.
			want := max(int(slot)+1, len(jobs), 2*have, minSlotRecs)
			s.recs = append(s.recs, make([]slotRec, want-have)...)
		}
		r := &s.recs[slot]
		id := j.ID()
		m := s.metric(j)
		if r.live && r.id != id {
			// Reissued before a sweep ran without its previous owner.
			s.removeEntry(int(r.queue), r.key(), int(slot))
			s.exits = append(s.exits, exitRec{r.id, int(r.queue)})
			r.live = false
			s.nlive--
		}
		if !r.live {
			// Arrival: place from the top queue and binary-insert.
			d, seq := s.orderKey(j), j.Seq()
			q := s.levels.Demote(0, m)
			s.insertEntry(q, ordEntry{demand: d, seq: seq, id: int(slot)})
			*r = slotRec{id: id, seq: seq, demand: d, queue: int32(q), live: true}
			s.nlive++
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
		r.epoch, r.view = s.epoch, int32(i)
		if unmet {
			r.unmet = 0
			if d := j.ReadyDemand(); d > 0 {
				r.unmet = d
			}
		}
	}
	// Every view has a live record stamped with this epoch, so records and
	// views differ in number only when some record was not seen: drop those,
	// keeping each list's order.
	for q := 0; q < len(s.ordered) && s.nlive != len(jobs); q++ {
		list := s.ordered[q]
		kept := 0
		for _, e := range list {
			if r := &s.recs[e.id]; r.epoch != s.epoch {
				s.exits = append(s.exits, exitRec{r.id, q})
				r.live = false
				s.nlive--
				continue
			}
			list[kept] = e
			kept++
		}
		s.ordered[q] = list[:kept]
	}
	if len(s.exits) > 1 {
		slices.SortFunc(s.exits, func(a, b exitRec) int { return cmp.Compare(a.id, b.id) })
	}
	if s.probe != nil {
		for _, e := range s.exits {
			s.probe.QueueExit(now, e.id, e.queue)
		}
	}
}

// ObserveDense implements sched.DenseObserver: Observe over slot records.
func (s *LASMQ) ObserveDense(now float64, jobs []sched.JobView, slots []int32) {
	s.sweepDense(now, jobs, slots, false)
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
func (s *LASMQ) AssignDense(now, capacity float64, jobs []sched.JobView, slots []int32, shares []float64) {
	k := s.levels.Queues()
	s.sweepDense(now, jobs, slots, true)
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
	clear(shares)
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
func (s *LASMQ) serve(list []ordEntry, amount, floor float64, shares []float64) float64 {
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
		shares[r.view] += x
		r.unmet -= x
		amount -= x
	}
	return amount
}

// HorizonDense implements sched.DenseHinter: Horizon with the shares in a
// slice parallel to the views.
func (s *LASMQ) HorizonDense(now float64, jobs []sched.JobView, slots []int32, shares []float64) float64 {
	horizon := math.Inf(1)
	for i, j := range jobs {
		rate := shares[i]
		if rate <= 0 {
			continue
		}
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
