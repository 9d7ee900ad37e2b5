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
// one round, below the peak number of schedulable jobs, and recycled. A
// policy that keeps per-job state keeps its record in an array indexed by
// slot, so no round hashes an ID: the observers (LAS_MQ, SRPT, the adaptive
// wrapper) and FIFO, whose admission queue of slots lives in AssignDense
// alone. Stateless policies ignore slots, and callers that have none pass
// nil; FIFO then sorts the views afresh, as under its map forms, which issue
// slots to observers only.
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
// Every policy here and in internal/core answers densely, its map forms
// MapForms over the dense ones; substrate.Driver drives any policy through
// DenseForms. One policy instance is driven through one form for a whole run.

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

// DenseObserver is the dense form of Observer and ObserveHinter: rates[i]
// bounds the growth rate of jobs[i]'s decision metric. An Observer that is no
// ObserveHinter answers ObserveHorizonDense with now: it cannot be bounded.
type DenseObserver interface {
	ObserveDense(now float64, jobs []JobView, slots, changed, freed []int32)
	ObserveHorizonDense(now float64, jobs []JobView, slots []int32, rates []float64) float64
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

// shareFloor is the smallest capacity the column is grown to,
// substrate.Grow's floor: a streamed run's live set starts at one job.
const shareFloor = 64

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
	if cap(s.col) < n {
		s.col = make([]float64, max(n, 2*cap(s.col), shareFloor))
	}
	s.col = s.col[:n]
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

// DenseForms returns p's assigner, hinter (nil unless p is a Hinter),
// observer (nil unless p is an Observer), and whether p is an ObserveHinter,
// the only case where rate bounds are worth computing. A policy without the
// dense form of every capability it has — a user's Scheduler, a test's
// map-only wrapper, benchmark's tracer — answers through one map adapter.
func DenseForms(p Scheduler) (DenseAssigner, DenseHinter, DenseObserver, bool) {
	_, hinter := p.(Hinter)
	_, observer := p.(Observer)
	_, rated := p.(ObserveHinter)
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
	return a, h, o, rated
}

// mapAdapter answers the dense forms through a policy's map forms. alloc is
// the buffer AssignInto fills, col a column filed under job IDs.
type mapAdapter struct {
	Scheduler
	buffered  BufferedAssigner
	hinter    Hinter
	observer  Observer
	obsHinter ObserveHinter

	alloc, col Assignment
}

func newMapAdapter(p Scheduler) *mapAdapter {
	m := &mapAdapter{Scheduler: p, alloc: make(Assignment), col: make(Assignment)}
	m.buffered, _ = p.(BufferedAssigner)
	m.hinter, _ = p.(Hinter)
	m.observer, _ = p.(Observer)
	m.obsHinter, _ = p.(ObserveHinter)
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

// ObserveHorizonDense files the rate column under the views' job IDs for the
// map-form ObserveHorizon, or answers now for a policy that has none.
func (m *mapAdapter) ObserveHorizonDense(now float64, jobs []JobView, _ []int32, rates []float64) float64 {
	if m.obsHinter == nil {
		return now
	}
	clear(m.col)
	for i, j := range jobs {
		if x := rates[i]; x != 0 {
			m.col[j.ID()] = x
		}
	}
	return m.obsHinter.ObserveHorizon(now, jobs, m.col)
}

// MapForms is the map forms of a policy that answers densely: the dense form
// over columns read from or filed under job IDs. A stateful policy (a
// DenseObserver) gets slots issued by job ID: a job keeps its slot while
// consecutive calls name it. One MapForms serves one policy.
type MapForms struct {
	shares Shares
	rates  []float64
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

// slotsFor returns p's slot column for jobs (nil for a stateless p), freeing
// the slots of jobs the call does not name before issuing new ones.
func (m *MapForms) slotsFor(p any, jobs []JobView) []int32 {
	if _, ok := p.(DenseObserver); !ok {
		return nil
	}
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
	slots := m.slotsFor(p, jobs)
	p.AssignDense(now, capacity, jobs, slots, nil, m.gone, &m.shares)
	m.gone = m.gone[:0]
	sharesInto(jobs, &m.shares, out)
}

// Horizon is p's map-form Horizon.
func (m *MapForms) Horizon(p DenseHinter, now float64, jobs []JobView, alloc Assignment) float64 {
	return p.HorizonDense(now, jobs, m.slotsFor(p, jobs), m.answer(jobs, alloc))
}

// Observe is p's map-form Observe.
func (m *MapForms) Observe(p DenseObserver, now float64, jobs []JobView) {
	slots := m.slotsFor(p, jobs)
	p.ObserveDense(now, jobs, slots, nil, m.gone)
	m.gone = m.gone[:0]
}

// ObserveHorizon is p's map-form ObserveHorizon.
func (m *MapForms) ObserveHorizon(p DenseObserver, now float64, jobs []JobView, rates Assignment) float64 {
	col := m.rates[:0]
	for _, j := range jobs {
		col = append(col, rates[j.ID()])
	}
	m.rates = col
	return p.ObserveHorizonDense(now, jobs, m.slotsFor(p, jobs), col)
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
