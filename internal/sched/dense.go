package sched

import "slices"

// The dense round contract is the second form of the optional capabilities
// in buffered.go: the same questions, asked and answered over slices parallel
// to the views instead of maps keyed by job ID. A substrate that issues slots
// (substrate.ViewSet.TakeSlot) hands the policy two parallel slices each
// round — jobs[i] is a view, slots[i] the job's slot — and takes back a
// sparse answer: Shares, a column whose element i is the share the map forms
// file under jobs[i].ID(), zero except at the views it lists as served.
//
// A slot is a small integer the substrate gives a job when it becomes
// schedulable and takes back when the job leaves: unique among the views of
// one round, below the peak number of schedulable jobs, and recycled. Slots
// are never nil: every call carries one per view, from a substrate's ViewSet
// or from a policy's map forms (MapForms), which issue them by job ID. A
// policy that keeps per-job state keeps its record in an array indexed by
// slot, so no round hashes an ID: the observers (LAS_MQ, SRPT, the adaptive
// wrapper), FIFO, whose admission queue of slots lives in AssignDense alone,
// and the ordering policies (LAS, SJF, SRTF, Gittins), which carry the last
// round's order by slot. The sharing policies (Fair, PS) ignore slots.
//
// The answer is the substrate's storage (substrate.ViewSet holds it). Reset
// clears the previous round's grants, AssignDense adds each grant by view
// index (Shares.Add), and Served lists the views granted a nonzero share,
// strictly ascending. A round therefore costs what it serves: a reader that
// wants the served jobs walks the list, and one that indexes the column by
// view (the engine, yarn, geo) reads zero for every other view.
//
// With each AssignDense and ObserveDense call comes the change log: what
// moved since the policy's previous AssignDense or ObserveDense call.
//
//   - changed lists, ascending, the indices of the views whose metric or
//     demand inputs may have moved: every job that arrived since, and every
//     job the latest AssignDense granted a nonzero share, which has been
//     served since. A view it does not name keeps its attained service,
//     estimate and demands. nil means every view.
//   - freed lists the slots taken back since, in the order they were freed.
//     A slot may be reissued before the policy has run a round without its
//     previous owner, so a slot in freed may also belong to a view in
//     changed, a new job.
//
// A stateful policy keeps its records current from the log alone: departures
// from freed, arrivals and moves from changed; stateless policies ignore it. A
// substrate that cannot say what changed passes nil changed, which costs the
// policy a pass over every view; one that passes a list keeps its views in the
// order of the previous call unless a job arrived or left since. A policy
// sees the log only at the calls it takes: a wrapper that forwards
// ObserveDense to its observing parts alone (Blend) leaves a part that does
// not observe the log of its AssignDense calls, so FIFO checks each record it
// serves against the slot column and finds a departure the log missed itself.
//
// Every policy here and in internal/core, LAS_MQ included, answers densely,
// its map forms MapForms over the dense ones, with no exception;
// substrate.Driver drives any policy through DenseForms. One policy instance
// is driven through one form for a whole run.

// DenseAssigner is the dense form of BufferedAssigner: AssignDense adds to
// shares, which arrives empty and sized for len(jobs) views, exactly the
// nonzero shares AssignInto would file under the jobs' IDs.
type DenseAssigner interface {
	AssignDense(now, capacity float64, jobs []JobView, slots, changed, freed []int32, shares *Shares)
}

// DenseHinter is the dense form of Hinter: shares is the answer AssignDense
// just gave for the same jobs and slots, and the served views are the only
// ones whose service grows.
type DenseHinter interface {
	HorizonDense(now float64, jobs []JobView, slots []int32, shares *Shares) float64
}

// DenseObserver is the dense form of Observer: ObserveDense applies the state
// change AssignDense would apply over the same views and log, and computes no
// answer. A substrate that skips a round calls it in the round's place.
type DenseObserver interface {
	ObserveDense(now float64, jobs []JobView, slots, changed, freed []int32)
}

// GrowSlots returns recs, a per-slot array, long enough to index slot: recs
// itself when it is, else a copy of length and capacity max(slot+1, views,
// 2*len(recs), minEntries) — sized from the first round's view count, then
// geometrically — whose new records are zero.
func GrowSlots[T any](recs []T, slot, views int) []T {
	if slot < len(recs) {
		return recs
	}
	grown := make([]T, max(slot+1, views, 2*len(recs), minEntries))
	copy(grown, recs)
	return grown
}

// FindView returns the index of slot in the slot column, walking up from lo,
// a lower bound on it (see FIFO.serve), one step of *budget per view it
// passes; -1 when the budget or the column runs out first.
func FindView(slots []int32, lo int, slot int32, budget *int) int32 {
	for i := max(lo, 0); i < len(slots) && *budget >= 0; i, *budget = i+1, *budget-1 {
		if slots[i] == slot {
			return int32(i)
		}
	}
	return -1
}

// Shares is one round's sparse answer: a share column parallel to the views
// that is zero except at the served views, and the list of those. The zero
// value is an empty answer over no views.
//
// The list costs each served view an entry, and only a reader of the list
// needs it: an answer keeps it from the first Served call on, so one read by
// view index alone (the engine's, yarn's, geo's) stays a plain column that
// Reset clears whole.
type Shares struct {
	col []float64
	// served lists, once sparse, every view whose share turned nonzero since
	// the last Reset, in the order the grants came; Served puts it in order.
	served []int32
	sparse bool
}

// Reset clears the previous round's grants — a sparse answer those it lists,
// and nothing else — and sizes the column for n views.
func (s *Shares) Reset(n int) {
	if s.sparse {
		for _, i := range s.served {
			s.col[i] = 0
		}
		s.served = s.served[:0]
	} else {
		clear(s.col)
	}
	s.col = Grow(s.col, n)[:n]
}

// Add grants view i the share x on top of what the round has granted it so
// far. A grant of zero lists an unserved view to no purpose; Served drops it.
func (s *Shares) Add(i int, x float64) {
	if s.sparse && s.col[i] == 0 {
		s.list(i)
	}
	s.col[i] += x
}

// list appends view i to the served list, growing it once to the column's
// capacity, which bounds it. It stays out of line so that Add, on the path of
// every grant, inlines.
//
//go:noinline
func (s *Shares) list(i int) {
	if len(s.served) == cap(s.served) {
		s.served = slices.Grow(s.served, cap(s.col))
	}
	s.served = append(s.served, int32(i))
}

// Col is the share column: Col()[i] is view i's share, zero when unserved.
func (s *Shares) Col() []float64 { return s.col }

// Served lists, strictly ascending, the views with a nonzero share, valid
// until the next Reset. Grants come in the policy's order (LAS_MQ's is queue
// order), so a list out of view order, or naming a share a later grant
// cancelled, is sorted and filtered here, once. The first call on an answer
// finds the served views in the column instead, and makes the answer sparse.
func (s *Shares) Served() []int32 {
	if !s.sparse {
		s.sparse = true
		for i, x := range s.col {
			if x != 0 {
				s.list(i)
			}
		}
		return s.served
	}
	for k, i := range s.served {
		if s.col[i] == 0 || k > 0 && i <= s.served[k-1] {
			slices.Sort(s.served)
			keep := s.served[:0]
			for _, i := range s.served {
				if s.col[i] != 0 && (len(keep) == 0 || i != keep[len(keep)-1]) {
					keep = append(keep, i)
				}
			}
			s.served = keep
			break
		}
	}
	return s.served
}

// DenseForms returns p's assigner, hinter (nil unless p is a Hinter) and
// observer (nil unless p is an Observer). A policy without the dense form of
// every capability it has — a user's Scheduler, a test's map-only wrapper,
// benchmark's tracer — answers through one map adapter.
func DenseForms(p Scheduler) (DenseAssigner, DenseHinter, DenseObserver) {
	_, hinter := p.(Hinter)
	_, observer := p.(Observer)
	a, dense := p.(DenseAssigner)
	h, denseHinter := p.(DenseHinter)
	o, denseObserver := p.(DenseObserver)
	if !dense || (hinter && !denseHinter) || (observer && !denseObserver) {
		m := newMapAdapter(p)
		a, h, o = m, m, m
	}
	if !hinter {
		h = nil
	}
	if !observer {
		o = nil
	}
	return a, h, o
}

// mapAdapter answers the dense forms through a policy's map forms. alloc is
// the buffer AssignInto fills, col a column filed under job IDs.
type mapAdapter struct {
	Scheduler
	buffered BufferedAssigner
	hinter   Hinter
	observer Observer

	alloc, col Assignment
}

func newMapAdapter(p Scheduler) *mapAdapter {
	m := &mapAdapter{Scheduler: p, alloc: make(Assignment), col: make(Assignment)}
	m.buffered, _ = p.(BufferedAssigner)
	m.hinter, _ = p.(Hinter)
	m.observer, _ = p.(Observer)
	return m
}

// AssignDense runs one map-form round — AssignInto into the adapter's buffer,
// or Assign — and reads the assignment out once per view.
func (m *mapAdapter) AssignDense(now, capacity float64, jobs []JobView, _, _, _ []int32, shares *Shares) {
	alloc := m.alloc
	if m.buffered != nil {
		m.buffered.AssignInto(now, capacity, jobs, alloc)
	} else {
		alloc = m.Assign(now, capacity, jobs)
	}
	for i, j := range jobs {
		if x := alloc[j.ID()]; x != 0 {
			shares.Add(i, x)
		}
	}
}

// HorizonDense files the served shares under their job IDs for the map-form
// Horizon.
func (m *mapAdapter) HorizonDense(now float64, jobs []JobView, _ []int32, shares *Shares) float64 {
	sharesInto(jobs, shares, m.col)
	return m.hinter.Horizon(now, jobs, m.col)
}

// ObserveDense calls the map-form Observe.
func (m *mapAdapter) ObserveDense(now float64, jobs []JobView, _, _, _ []int32) {
	m.observer.Observe(now, jobs)
}

// MapForms is the map forms of a policy that answers densely: the dense form
// over columns read from or filed under job IDs, with slots issued by job ID,
// as a substrate issues them: a job keeps its slot while consecutive calls
// name it. One MapForms serves one policy.
type MapForms struct {
	shares Shares
	slots  []int32
	// held[slot] is the job holding slot and the call that last named it (0:
	// free, and stacked on free).
	slotOf map[int]int32
	held   []slotHold
	call   uint64
	free   []int32
	// gone logs the slots freed since p's previous AssignDense or
	// ObserveDense call: the log's freed list (changed is always nil).
	gone []int32
}

type slotHold struct {
	id   int
	call uint64
}

// slotsFor returns the slot column for jobs, freeing the slots of jobs the
// call does not name before issuing new ones.
func (m *MapForms) slotsFor(jobs []JobView) []int32 {
	if m.slotOf == nil {
		m.slotOf = make(map[int]int32)
	}
	m.call++
	slots := m.slots[:0]
	for _, j := range jobs {
		slot, ok := m.slotOf[j.ID()]
		if !ok {
			slot = -1
		} else {
			m.held[slot].call = m.call
		}
		slots = append(slots, slot)
	}
	for slot, h := range m.held {
		if h.call != 0 && h.call != m.call {
			delete(m.slotOf, h.id)
			m.held[slot].call = 0
			m.free = append(m.free, int32(slot))
			m.gone = append(m.gone, int32(slot))
		}
	}
	for i, j := range jobs {
		if slots[i] >= 0 {
			continue
		}
		if n := len(m.free); n > 0 {
			slots[i], m.free = m.free[n-1], m.free[:n-1]
		} else {
			slots[i] = int32(len(m.held))
			m.held = append(m.held, slotHold{})
		}
		m.slotOf[j.ID()] = slots[i]
		m.held[slots[i]] = slotHold{j.ID(), m.call}
	}
	m.slots = slots
	return slots
}

// answer reads the shares alloc files under the views' job IDs into m's
// answer.
func (m *MapForms) answer(jobs []JobView, alloc Assignment) *Shares {
	m.shares.Reset(len(jobs))
	for i, j := range jobs {
		if x := alloc[j.ID()]; x != 0 {
			m.shares.Add(i, x)
		}
	}
	return &m.shares
}

// Assign is p's map-form Assign: AssignInto into a fresh assignment.
func (m *MapForms) Assign(p DenseAssigner, now, capacity float64, jobs []JobView) Assignment {
	out := make(Assignment, len(jobs))
	m.AssignInto(p, now, capacity, jobs, out)
	return out
}

// AssignInto is p's map-form AssignInto: the dense form, then its served
// shares filed under their job IDs.
func (m *MapForms) AssignInto(p DenseAssigner, now, capacity float64, jobs []JobView, out Assignment) {
	m.shares.Reset(len(jobs))
	slots := m.slotsFor(jobs)
	p.AssignDense(now, capacity, jobs, slots, nil, m.gone, &m.shares)
	m.gone = m.gone[:0]
	sharesInto(jobs, &m.shares, out)
}

// Horizon is p's map-form Horizon.
func (m *MapForms) Horizon(p DenseHinter, now float64, jobs []JobView, alloc Assignment) float64 {
	return p.HorizonDense(now, jobs, m.slotsFor(jobs), m.answer(jobs, alloc))
}

// Observe is p's map-form Observe.
func (m *MapForms) Observe(p DenseObserver, now float64, jobs []JobView) {
	slots := m.slotsFor(jobs)
	p.ObserveDense(now, jobs, slots, nil, m.gone)
	m.gone = m.gone[:0]
}

// sharesInto empties out and files the served shares under their job IDs —
// the map forms never filed a zero share.
func sharesInto(jobs []JobView, shares *Shares, out Assignment) {
	clear(out)
	col := shares.Col()
	for _, i := range shares.Served() {
		out[jobs[i].ID()] = col[i]
	}
}
