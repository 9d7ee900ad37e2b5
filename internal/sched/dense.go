package sched

// The dense round contract is the second form of the optional capabilities
// in buffered.go: the same questions, asked and answered over slices parallel
// to the views instead of maps keyed by job ID. A substrate that issues slots
// (substrate.ViewSet.TakeSlot) hands the policy three parallel slices each
// round — jobs[i] is a view, slots[i] the job's slot, and shares[i] (or
// rates[i]) the number that the map forms file under jobs[i].ID().
//
// A slot is a small integer the substrate gives a job when it becomes
// schedulable and takes back when the job leaves: unique among the views of
// one round, below the peak number of schedulable jobs, and recycled. A
// stateful policy keeps its per-job record in an array indexed by slot, so no
// round hashes an ID. Stateless policies ignore slots, and callers that have
// none pass nil.
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
// order of the previous call unless a job arrived or left since.
//
// Every policy here and in internal/core answers densely, its map forms
// MapForms over the dense ones; substrate.Driver drives any policy through
// DenseForms. One policy instance is driven through one form for a whole run.

// DenseAssigner is the dense form of BufferedAssigner: AssignDense writes
// every element of shares (len(jobs); zero for an unserved job) with exactly
// the share AssignInto would file under that job's ID.
type DenseAssigner interface {
	AssignDense(now, capacity float64, jobs []JobView, slots, changed, freed []int32, shares []float64)
}

// DenseHinter is the dense form of Hinter: shares is the slice AssignDense
// just filled for the same jobs and slots.
type DenseHinter interface {
	HorizonDense(now float64, jobs []JobView, slots []int32, shares []float64) float64
}

// DenseObserver is the dense form of Observer and ObserveHinter: rates[i]
// bounds the growth rate of jobs[i]'s decision metric. An Observer that is no
// ObserveHinter answers ObserveHorizonDense with now: it cannot be bounded.
type DenseObserver interface {
	ObserveDense(now float64, jobs []JobView, slots, changed, freed []int32)
	ObserveHorizonDense(now float64, jobs []JobView, slots []int32, rates []float64) float64
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
// the buffer AssignInto fills, last the latest round's assignment, col a
// column filed under job IDs.
type mapAdapter struct {
	Scheduler
	buffered  BufferedAssigner
	hinter    Hinter
	observer  Observer
	obsHinter ObserveHinter

	alloc, last, col Assignment
	filled           []float64 // the share column the latest AssignDense wrote from last
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
func (m *mapAdapter) AssignDense(now, capacity float64, jobs []JobView, _, _, _ []int32, shares []float64) {
	if m.buffered != nil {
		m.buffered.AssignInto(now, capacity, jobs, m.alloc)
		m.last = m.alloc
	} else {
		m.last = m.Assign(now, capacity, jobs)
	}
	for i, j := range jobs {
		shares[i] = m.last[j.ID()]
	}
	m.filled = shares
}

// HorizonDense hands the map-form Horizon the assignment shares came from:
// the latest round's own when shares is the column AssignDense filled from
// it, otherwise shares filed under the views' job IDs (a blend's mix).
func (m *mapAdapter) HorizonDense(now float64, jobs []JobView, _ []int32, shares []float64) float64 {
	alloc := m.last
	if len(shares) == 0 || len(shares) != len(m.filled) || &shares[0] != &m.filled[0] {
		alloc = m.col
		sharesInto(jobs, shares, alloc)
	}
	return m.hinter.Horizon(now, jobs, alloc)
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
	sharesInto(jobs, rates, m.col)
	return m.obsHinter.ObserveHorizon(now, jobs, m.col)
}

// MapForms is the map forms of a policy that answers densely: the dense form
// over columns read from or filed under job IDs. A stateful policy (a
// DenseObserver) gets slots issued by job ID: a job keeps its slot while
// consecutive calls name it. One MapForms serves one policy.
type MapForms struct {
	col   []float64
	slots []int32
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

// column reads the values alloc files under the views' job IDs into a column.
func (m *MapForms) column(jobs []JobView, alloc Assignment) []float64 {
	col := sizeShares(&m.col, len(jobs))
	for i, j := range jobs {
		col[i] = alloc[j.ID()]
	}
	return col
}

// Assign is p's map-form Assign: AssignInto into a fresh assignment.
func (m *MapForms) Assign(p DenseAssigner, now, capacity float64, jobs []JobView) Assignment {
	out := make(Assignment, len(jobs))
	m.AssignInto(p, now, capacity, jobs, out)
	return out
}

// AssignInto is p's map-form AssignInto: the dense form, then its nonzero
// shares filed under their job IDs.
func (m *MapForms) AssignInto(p DenseAssigner, now, capacity float64, jobs []JobView, out Assignment) {
	shares := sizeShares(&m.col, len(jobs))
	slots := m.slotsFor(p, jobs)
	p.AssignDense(now, capacity, jobs, slots, nil, m.gone, shares)
	m.gone = m.gone[:0]
	sharesInto(jobs, shares, out)
}

// Horizon is p's map-form Horizon.
func (m *MapForms) Horizon(p DenseHinter, now float64, jobs []JobView, alloc Assignment) float64 {
	return p.HorizonDense(now, jobs, m.slotsFor(p, jobs), m.column(jobs, alloc))
}

// Observe is p's map-form Observe.
func (m *MapForms) Observe(p DenseObserver, now float64, jobs []JobView) {
	slots := m.slotsFor(p, jobs)
	p.ObserveDense(now, jobs, slots, nil, m.gone)
	m.gone = m.gone[:0]
}

// ObserveHorizon is p's map-form ObserveHorizon.
func (m *MapForms) ObserveHorizon(p DenseObserver, now float64, jobs []JobView, rates Assignment) float64 {
	return p.ObserveHorizonDense(now, jobs, m.slotsFor(p, jobs), m.column(jobs, rates))
}

// sizeShares returns *scratch resized to n, reusing its backing array.
func sizeShares(scratch *[]float64, n int) []float64 {
	if cap(*scratch) < n {
		*scratch = make([]float64, n)
	}
	return (*scratch)[:n]
}

// sharesInto empties out and files the nonzero values under their job IDs —
// the map forms never filed a zero share.
func sharesInto(jobs []JobView, shares []float64, out Assignment) {
	clear(out)
	for i, x := range shares {
		if x != 0 {
			out[jobs[i].ID()] = x
		}
	}
}
