package substrate

import "lasmq/internal/sched"

// ViewSet is the job-view registry a substrate refills every scheduling
// round — or, when its views are persistent adapters over job state, whenever
// the schedulable set changes: the sched.JobView slice handed to the policy,
// plus what travels with it. Every substrate speaks the dense round contract (see
// internal/sched/dense.go): it takes a slot for every job that becomes
// schedulable (TakeSlot/FreeSlot), registers views with AddSlot, and reads
// the policy's answer from the share column Driver.Shares fills — slots,
// shares and the rate bounds (AddRate) are columns parallel to the views. The
// rate map is what Driver.Observe hands a map-only policy, filed from the
// rate column. The ready-demand map (Begin(true, ·), SetDemand, Demand) and
// the slotless Add have no product caller left: they are what
// benchmark/replay.go's viewset replay times, fenced by `make layering` and
// deleted with it. Everything reuses its backing storage across rounds, which
// is what keeps the steady scheduling path allocation-free.
type ViewSet struct {
	views    []sched.JobView
	demand   map[int]float64
	rates    sched.Assignment
	hasRates bool

	// Dense columns, parallel to views. slots and rateCol are filled as views
	// are added; shares is sized by Driver.Shares.
	slots   []int32
	shares  []float64
	rateCol []float64

	// The slot allocator: slots below issued have been handed out at least
	// once, and free stacks the returned ones, so slots stay below the peak
	// number of jobs holding one at once and the most recently freed is
	// reissued first.
	issued int32
	free   []int32
}

// denseFloor is the smallest capacity a dense column or the slot free list
// is grown to: a streamed run's live set starts at one job, and growing by
// doubling from one would cost every fresh arena a dozen small allocations.
const denseFloor = 64

// grow returns s with room for at least n elements, keeping its contents and
// growing geometrically from denseFloor.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	return append(make([]T, 0, max(denseFloor, 2*cap(s), n)), s...)
}

// TakeSlot issues a slot for a job entering the schedulable set.
func (vs *ViewSet) TakeSlot() int32 {
	if n := len(vs.free); n > 0 {
		slot := vs.free[n-1]
		vs.free = vs.free[:n-1]
		return slot
	}
	vs.issued++
	return vs.issued - 1
}

// FreeSlot takes a slot back from a job that left the schedulable set. It may
// be reissued at once — before the policy has run a round without the job.
func (vs *ViewSet) FreeSlot(slot int32) {
	vs.free = append(grow(vs.free, len(vs.free)+1), slot)
}

// Begin starts a new registration, clearing the views and the dense columns.
// withRates says the rounds over it that feed a horizon-hinting policy's
// observation carry rate bounds: one AddRate per view, in the order the views
// were added. withDemand clears the ready-demand map for SetDemand
// (benchmark/replay.go only).
func (vs *ViewSet) Begin(withDemand, withRates bool) {
	vs.views = vs.views[:0]
	vs.slots = vs.slots[:0]
	vs.rateCol = vs.rateCol[:0]
	if withDemand {
		if vs.demand == nil {
			vs.demand = make(map[int]float64)
		}
		clear(vs.demand)
	}
	vs.hasRates = withRates
	if withRates {
		if vs.rates == nil {
			vs.rates = make(sched.Assignment)
		}
		clear(vs.rates)
	}
}

// Add registers one schedulable job's view for this round, without a slot. A
// round whose views carry no slots is driven through the policy's map forms
// (benchmark/replay.go and the kernel's own tests).
func (vs *ViewSet) Add(v sched.JobView) { vs.views = append(vs.views, v) }

// AddSlot registers one schedulable job's view and the slot the job holds.
func (vs *ViewSet) AddSlot(v sched.JobView, slot int32) {
	vs.views = append(vs.views, v)
	vs.slots = append(grow(vs.slots, len(vs.slots)+1), slot)
}

// AddRate records the metric-rate bound of the next view that has none
// (Begin(·, true) rounds), in the order the views were added. Once every view
// has a bound, the next AddRate starts the column over: a substrate whose
// registration outlives a round (the engine re-registers only when its
// running set changes) refills the bounds alone, without a Begin.
func (vs *ViewSet) AddRate(r float64) {
	if len(vs.rateCol) == len(vs.views) {
		vs.rateCol = vs.rateCol[:0]
	}
	vs.rateCol = append(grow(vs.rateCol, len(vs.rateCol)+1), r)
}

// SetDemand records a job's ready container demand (Begin(true, ·) rounds).
func (vs *ViewSet) SetDemand(id int, d float64) { vs.demand[id] = d }

// Len is the number of views registered this round.
func (vs *ViewSet) Len() int { return len(vs.views) }

// Demand returns the ready-demand map filled since Begin(true, ·).
func (vs *ViewSet) Demand() map[int]float64 { return vs.demand }

// Reset empties the registry, dropping references into the caller's job
// state and rewinding the slot allocator while keeping the backing storage —
// a pooled substrate arena calls this between runs so a recycled ViewSet
// cannot pin the previous workload, and the next run's slots start at zero.
func (vs *ViewSet) Reset() {
	clear(vs.views)
	vs.views = vs.views[:0]
	vs.slots = vs.slots[:0]
	vs.rateCol = vs.rateCol[:0]
	clear(vs.demand)
	clear(vs.rates)
	vs.hasRates = false
	vs.issued = 0
	vs.free = vs.free[:0]
}
