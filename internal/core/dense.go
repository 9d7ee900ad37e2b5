package core

import (
	"cmp"
	"math"
	"slices"

	"lasmq/internal/mlq"
	"lasmq/internal/sched"
)

// This file is LAS_MQ's round (see internal/sched/dense.go): Algorithms 1
// and 2 over one record per slot, driven by the change log, with the grants
// added to the sparse answer by view index. It is LAS_MQ's only
// implementation — lasmq.go's map forms are sched.MapForms over it — and
// schedtest.LiteralLASMQ, written from the paper, is the oracle the tests hold
// it against.

// slotRec is the record of the job holding a slot.
type slotRec struct {
	id     int     // the owner
	seq    int     // with demand, the key the job's ordered-list entry is filed under
	demand float64 // read only under OrderByDemand
	// unmet is the job's ready demand when the log last named it, less what
	// AssignDense granted since: serve decrements only a job it gives a
	// nonzero share, and the next call's log names that job again.
	unmet float64
	at    int32 // its view index when last stamped plus gone then (sched.FindView)
	queue int32
	live  bool
}

// exitRec is one departure of a sweep, held until the exits can be emitted
// in job-ID order.
type exitRec struct{ id, queue int }

var (
	_ sched.DenseAssigner = (*LASMQ)(nil)
	_ sched.DenseHinter   = (*LASMQ)(nil)
	_ sched.DenseObserver = (*LASMQ)(nil)
)

// key is the entry r's job, holding slot, is filed under in its queue.
func (r *slotRec) key(slot int32) ordEntry {
	return ordEntry{demand: r.demand, seq: r.seq, slot: int(slot)}
}

// recOf returns the record of the job behind view j, or nil when no sweep
// has seen that job at that slot.
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

// sweepDense applies Algorithm 1's per-round state mutation, driven by the
// change log (see internal/sched/dense.go), in three steps: departures, from
// the freed slots, counted into gone; the changed views, in view order —
// arrival and binary insertion, demote-only queue update, in-place demand
// refresh (which marks the queue dirty for restoreOrder instead of re-sorting
// eagerly), the unmet reset and the record's stamp (at), which serve mends
// (locate); and the exits, emitted after the arrivals and demotions in job-ID
// order. Every view counts as changed when the log says so (changed is nil)
// and after a refit, which re-places every job. Shared by ObserveDense and
// AssignDense, so skipped rounds keep the persistent order exactly in sync.
func (s *LASMQ) sweepDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	s.exits = s.exits[:0]
	s.gone += int32(len(freed))
	for _, slot := range freed {
		// A slot without a live record left before any sweep saw its job.
		if int(slot) < len(s.recs) && s.recs[slot].live {
			r := &s.recs[slot]
			s.removeEntry(int(r.queue), r.key(slot))
			s.exits = append(s.exits, exitRec{r.id, int(r.queue)})
			r.live = false
		}
	}
	all := changed == nil || s.replace
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
		s.recs = sched.GrowSlots(s.recs, int(slot), len(jobs))
		r := &s.recs[slot]
		id := j.ID()
		m := s.metric(j)
		if s.replace {
			// Re-placement under a refitted ladder: placed from attained
			// service, demoted from there, appended for restoreOrder to sort.
			// A job seen first enters; one whose level changes moves from the
			// level it held, upward too (see DESIGN.md, Adaptive thresholds).
			q := s.levels.Demote(s.levels.Placement(j.Attained()), m)
			held, from := r.live, int(r.queue)
			if held {
				s.removeEntry(from, r.key(slot))
			}
			*r = slotRec{id: id, seq: j.Seq(), demand: s.orderKey(j), queue: int32(q), live: true}
			s.ordered[q] = append(sched.Room(&s.base[q], s.ordered[q], len(s.ordered[q])+1), r.key(slot))
			s.touched[q] = true
			if s.probe != nil && !held {
				s.probe.QueueEnter(now, id, q)
			} else if s.probe != nil && q != from {
				s.probe.QueueDemote(now, id, from, q, m)
			}
		} else if !r.live {
			// Arrival: place from the top queue and binary-insert.
			d, seq := s.orderKey(j), j.Seq()
			q := s.levels.Demote(0, m)
			s.insertEntry(q, ordEntry{demand: d, seq: seq, slot: int(slot)})
			*r = slotRec{id: id, seq: seq, demand: d, queue: int32(q), live: true}
			if s.probe != nil {
				s.probe.QueueEnter(now, id, q)
			}
		} else if from, q := int(r.queue), s.levels.Demote(int(r.queue), m); q != from {
			// Demotion: move the entry between queue lists by its stored key.
			d := s.orderKey(j)
			s.removeEntry(from, r.key(slot))
			s.insertEntry(q, ordEntry{demand: d, seq: r.seq, slot: int(slot)})
			r.queue, r.demand = int32(q), d
			if s.probe != nil {
				s.probe.QueueDemote(now, id, from, q, m)
			}
		} else if s.cfg.OrderByDemand {
			if d := j.RemainingDemand(); d != r.demand {
				// Demand changed but the job stays put: refresh the key in
				// place and leave the re-sort to restoreOrder.
				if pos := s.findEntry(from, r.key(slot)); pos >= 0 {
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
		r.at = int32(i) + s.gone
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

// ObserveDense implements sched.DenseObserver: it applies exactly the state
// mutation AssignDense performs — demote-only queue membership updates and
// dropping state for departed jobs (Algorithm 1) — without computing an
// allocation. The task-level engine calls it at instants where no launch is
// possible, so that skipping the full round cannot change queue trajectories.
// Demotion is deterministic in the current metric, so observing twice at one
// instant is the same as observing once.
func (s *LASMQ) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	s.sweepDense(now, jobs, slots, changed, freed)
}

// AssignDense implements sched.DenseAssigner. It first updates queue
// membership and per-queue order (Algorithm 1), then splits capacity across
// queues by weighted sharing and serves jobs one by one within each queue,
// spilling leftover capacity to any job with unmet demand (Algorithm 2).
func (s *LASMQ) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	k := s.levels.Queues()
	s.sweepDense(now, jobs, slots, changed, freed)
	s.restoreOrder()

	// Algorithm 2 line 1: split capacity across non-empty queues by weight.
	var totalWeight float64
	for i, w := range s.weights {
		if len(s.ordered[i]) > 0 {
			totalWeight += w
		}
	}
	if totalWeight == 0 {
		return
	}

	// Algorithm 2 lines 3-12: within each queue's budget, serve jobs one by
	// one in queue order; line 13: spill what is left to any job with unmet
	// demand, highest-priority queues first.
	leftover := 0.0
	s.walk = len(slots)
	for i := 0; i < k; i++ {
		if len(s.ordered[i]) > 0 {
			leftover += s.serve(s.ordered[i], slots, capacity*s.weights[i]/totalWeight, 0, shares)
		}
	}
	for i := 0; i < k && leftover > 1e-12; i++ {
		leftover = s.serve(s.ordered[i], slots, leftover, 1e-12, shares)
	}
}

// serve grants amount to the list's jobs with unmet demand, one by one in
// list order, until no more than floor is left, and returns what is left.
func (s *LASMQ) serve(list []ordEntry, slots []int32, amount, floor float64, shares *sched.Shares) float64 {
	for _, e := range list {
		if amount <= floor {
			break
		}
		r := &s.recs[e.slot]
		if r.unmet <= 0 {
			continue
		}
		v := int(r.at - s.gone)
		if v < 0 || v >= len(slots) || slots[v] != int32(e.slot) {
			v = s.locate(r, slots, int32(e.slot), v)
		}
		// The builtin min treats NaN and signed zeros as math.Min does, except
		// where a NaN meets an infinity: math.Min(NaN, -Inf) is -Inf, but
		// min(NaN, -Inf) is NaN. The clamps that were math.Min or math.Max
		// calls (HorizonDense's, and five in internal/fluid/fluid.go) cannot
		// meet that pair: fluid shares are NaN-checked before they are
		// clamped, spec sizes, widths and capacity are validated finite, and
		// HorizonDense skips an infinite threshold.
		x := min(amount, r.unmet)
		shares.Add(v, x)
		r.unmet -= x
		amount -= x
	}
	return amount
}

// locate finds and re-stamps the stale view index of r, the record of the job
// holding slot: by sched.FindView from lo, or else by re-stamping every record.
func (s *LASMQ) locate(r *slotRec, slots []int32, slot int32, lo int) int {
	if v := sched.FindView(slots, lo, slot, &s.walk); v >= 0 {
		s.walks, r.at = s.walks+1, v+s.gone
		return int(v)
	}
	s.restamps++
	for i, slot := range slots {
		s.recs[slot].at = int32(i) + s.gone
	}
	return int(r.at - s.gone)
}

// HorizonDense implements sched.DenseHinter: the decision can change before
// the next external event when a served job's service metric crosses its
// queue's demotion threshold. Only the served views gain service, so only
// they are walked. Used by the fluid engine, where the metric grows at
// exactly the allocation rate.
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
		t := now + max(gap, 0)/rate
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
