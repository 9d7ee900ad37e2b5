package substrate

import "lasmq/internal/sched"

// ViewSet is the job-view registry a substrate keeps of its schedulable set:
// the sched.JobView slice handed to the policy, plus what travels with it.
// Every substrate speaks the dense round contract (see
// internal/sched/dense.go): it takes a slot for every job that becomes
// schedulable (TakeSlot/FreeSlot), registers views with AddSlot, and reads
// the policy's sparse answer: Driver.Shares returns its share column and
// Served its served views — slots and the rate bounds (AddRate) are columns
// parallel to the views, and so is the share column. A substrate registers
// anew (Begin, then AddSlot per view) whenever its set changes, or edits one
// registration as it goes: AddSlot as a job is admitted, Cut as jobs leave
// (the fluid simulator).
//
// The ViewSet also keeps the contract's change log, which Driver.Shares and
// Driver.Observe hand to the policy and then clear: FreeSlot logs the freed
// slot, and MarkChanged the index of a view whose inputs may have moved. A
// substrate that never marks a view — the engine, yarn and geo, whose every
// view moves between calls — has every view counted as changed at every
// call; the fluid simulator marks the jobs it served and those it admitted,
// and the views it does not mark count as unchanged.
//
// The ready-demand map (Begin(true, ·), SetDemand, Demand) and the slotless
// Add have no product caller left: they are what benchmark/replay.go's
// viewset replay times, fenced by `make layering` and deleted with it.
// Everything reuses its backing storage across rounds, which is what keeps
// the steady scheduling path allocation-free.
type ViewSet struct {
	views    []sched.JobView
	demand   map[int]float64
	hasRates bool

	// Dense columns, parallel to views, filled as views are added, and the
	// answer Driver.Shares has the policy fill.
	slots   []int32
	rateCol []float64
	shares  sched.Shares

	// The slot allocator: slots below issued have been handed out at least
	// once, and free stacks the returned ones, so slots stay below the peak
	// number of jobs holding one at once and the most recently freed is
	// reissued first.
	issued int32
	free   []int32

	// The change log since the policy's previous call: the views marked
	// changed, ascending, and the slots freed, in order. declared says the
	// substrate marks views, so an unmarked one has not changed.
	changed  []int32
	freed    []int32
	declared bool
}

// denseFloor is the smallest capacity a dense column, the slot free list or
// the change log is grown to: a streamed run's live set starts at one job,
// and growing by doubling from one would cost every fresh arena a dozen small
// allocations.
const denseFloor = 64

// Grow returns s with room for at least n elements, keeping its contents:
// at least denseFloor, then as append grows a slice (doubling while small, by
// a quarter once large). The fluid simulator grows its job lists with it too.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	if cap(s) < denseFloor {
		return append(make([]T, 0, max(denseFloor, n)), s...)
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)[:len(s)]
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

// FreeSlot takes a slot back from a job that left the schedulable set and
// logs it for the policy. It may be reissued at once — before the policy has
// run a round without the job.
func (vs *ViewSet) FreeSlot(slot int32) {
	vs.free = append(Grow(vs.free, len(vs.free)+1), slot)
	vs.freed = append(Grow(vs.freed, len(vs.freed)+1), slot)
}

// MarkChanged logs that the inputs of the i-th view registered — its
// attained service, estimate or demands — may have moved since the policy's
// previous call, or that the job is new to it. From its first mark on, a
// substrate must mark every such view before each call, once, in ascending
// order, after the registration they index: a view it does not mark is one
// the policy skips. It keeps its views in the order of the previous call
// unless a job arrived or left (see internal/sched/dense.go).
func (vs *ViewSet) MarkChanged(i int) {
	vs.declared = true
	if len(vs.changed) == cap(vs.changed) {
		vs.changed = Grow(vs.changed, len(vs.views)) // there are no more marks than views
	}
	vs.changed = append(vs.changed, int32(i))
}

// log returns the change log in the form the dense contract takes it: nil
// changed until the substrate marks views.
func (vs *ViewSet) log() (changed, freed []int32) {
	if vs.declared {
		changed = vs.changed
	}
	return changed, vs.freed
}

// clearLog empties the change log once the policy has been handed it.
func (vs *ViewSet) clearLog() {
	vs.changed = vs.changed[:0]
	vs.freed = vs.freed[:0]
}

// Begin starts a new registration, clearing the views, the dense columns and
// the marks, which index the views.
// withRates says the rounds over it that feed a horizon-hinting policy's
// observation carry rate bounds: one AddRate per view, in the order the views
// were added. withDemand clears the ready-demand map for SetDemand
// (benchmark/replay.go only).
func (vs *ViewSet) Begin(withDemand, withRates bool) {
	vs.views = vs.views[:0]
	vs.slots = vs.slots[:0]
	vs.rateCol = vs.rateCol[:0]
	vs.changed = vs.changed[:0]
	if withDemand {
		if vs.demand == nil {
			vs.demand = make(map[int]float64)
		}
		clear(vs.demand)
	}
	vs.hasRates = withRates
}

// Reserve makes room for n views in the registration just begun, so a
// substrate that knows how many views it will add grows each column at most
// once.
func (vs *ViewSet) Reserve(n int) {
	vs.views = Grow(vs.views, n)
	vs.slots = Grow(vs.slots, n)
}

// Add registers one schedulable job's view for this round, without a slot
// (benchmark/replay.go). Only a policy that keeps no per-job state can be
// driven over views without slots.
func (vs *ViewSet) Add(v sched.JobView) { vs.views = append(vs.views, v) }

// AddSlot registers one schedulable job's view and the slot the job holds.
func (vs *ViewSet) AddSlot(v sched.JobView, slot int32) {
	vs.views = append(vs.views, v)
	vs.slots = append(Grow(vs.slots, len(vs.slots)+1), slot)
}

// Served lists, strictly ascending, the views the latest Driver.Shares over vs
// gave a nonzero share. The answer keeps the list from its first read on, so
// a substrate that reads only the column never pays for it.
func (vs *ViewSet) Served() []int32 { return vs.shares.Served() }

// Cut removes the views at the indices gone lists, strictly ascending,
// keeping the others and their slots in order: the edit that spares a
// substrate whose set loses a few jobs re-registering the rest. The rate
// bounds start over (AddRate). Cut between rounds, before marking views, as
// the marks index the views.
func (vs *ViewSet) Cut(gone []int32) {
	vs.views = Cut(vs.views, gone)
	vs.slots = Cut(vs.slots, gone)
	vs.rateCol = vs.rateCol[:0]
}

// Cut removes from s the elements at the indices gone lists, strictly
// ascending, keeping the others in order: each run between two removed
// elements moves in one copy. The vacated tail is zeroed so it pins nothing.
func Cut[T any](s []T, gone []int32) []T {
	if len(gone) == 0 {
		return s
	}
	w := int(gone[0])
	for k, g := range gone {
		end := len(s)
		if k+1 < len(gone) {
			end = int(gone[k+1])
		}
		w += copy(s[w:], s[g+1:end])
	}
	clear(s[w:])
	return s[:w]
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
	vs.rateCol = append(Grow(vs.rateCol, len(vs.rateCol)+1), r)
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
	vs.hasRates = false
	vs.issued = 0
	vs.free = vs.free[:0]
	vs.clearLog()
	vs.declared = false
}
