package sched

import "slices"

// BufferedAssigner is the allocation-free variant of Scheduler.Assign: the
// policy clears out and fills it with exactly the shares Assign would
// return, reusing policy-owned scratch buffers instead of allocating per
// round. All policies in this package and internal/core implement it; the
// engines call it on the hot path. A policy carrying scratch buffers is not
// safe for concurrent use — use one instance per simulation run.
type BufferedAssigner interface {
	AssignInto(now float64, capacity float64, jobs []JobView, out Assignment)
}

// Observer is implemented by stateful policies (LAS_MQ and wrappers around
// it) whose Assign mutates internal state: Observe applies exactly that
// state mutation — queue demotions, completion tracking, dropping departed
// jobs — without computing an allocation. The task-level engine calls it at
// instants where it skips a full scheduling round, so that skipping rounds
// cannot change the policy's state trajectory. Observe followed by Assign
// at the same instant must behave like Assign alone (the mutation is
// idempotent at a fixed time).
type Observer interface {
	Observe(now float64, jobs []JobView)
}

// ObserveHinter is inert: no substrate asks a policy when its next state
// change could happen, because a skipped round always observes. It stays
// only because benchmark/trace.go's wrapper names it, and LAS_MQ implements
// it for that wrapper alone (core.LASMQ.ObserveHorizon returns now).
type ObserveHinter interface {
	Observer
	ObserveHorizon(now float64, jobs []JobView, rates Assignment) float64
}

// viewEntry caches one job's sort key and tie-break so ordering policies
// sort concrete data instead of making interface calls inside a
// reflection-based comparator. idx is the job's position in the round's view
// slice, which is also where its share goes; slot is the job's slot, by which
// a policy carries its entries from round to round (carriedEntries).
type viewEntry struct {
	key  float64
	seq  int
	idx  int32
	slot int32
}

// minEntries is the smallest per-slot array (GrowSlots): a streamed run's
// first round sees one job, and doubling up from one would cost every run
// several small allocations.
const minEntries = 32

// carriedEntries returns the jobs' entries in the order the previous call
// left *scratch in, recognising jobs by slot: departed jobs dropped, new ones
// appended. Between two rounds few jobs overtake each other, so the caller's
// sort repairs that in about one comparison per job; a reissued slot costs its
// new owner a longer walk. at is the caller's slot -> view index scratch.
func carriedEntries(scratch *[]viewEntry, at *[]int32, jobs []JobView, slots []int32, key func(JobView) float64) []viewEntry {
	// pos[slot] is the view index + 1 of the slot's job, zeroed once written.
	pos := *at
	for i, slot := range slots {
		pos = GrowSlots(pos, int(slot), len(jobs))
		pos[slot] = int32(i) + 1
	}
	*at = pos
	entry := func(i int32) viewEntry {
		return viewEntry{key: key(jobs[i]), seq: jobs[i].Seq(), idx: i, slot: slots[i]}
	}
	// Rewriting in place is safe: the write index never passes the read index.
	entries := (*scratch)[:0]
	for _, old := range *scratch {
		if int(old.slot) < len(pos) && pos[old.slot] != 0 {
			entries = append(entries, entry(pos[old.slot]-1))
			pos[old.slot] = 0
		}
	}
	entries = Grow(entries, len(jobs))
	for i, slot := range slots {
		if pos[slot] != 0 {
			entries = append(entries, entry(int32(i)))
			pos[slot] = 0
		}
	}
	*scratch = entries
	return entries
}

// sortEntries orders entries by (key, seq) ascending. Sequence numbers are
// unique, so the order is total and a stable sort is equivalent to any
// correct sort. Up to insertionMax entries it is a straight insertion sort —
// no comparator call, and one linear pass over input that is already ordered,
// the common case round over round; above that, ordered input is detected
// with the same linear pass and skipped, and anything else goes to the
// library sort.
func sortEntries(entries []viewEntry) {
	if len(entries) <= insertionMax {
		insertionSortEntries(entries)
		return
	}
	librarySortEntries(entries)
}

// insertionSortEntries is sortEntries' small-input half: one comparison per
// entry that is already in place, a walk back for one that is not.
func insertionSortEntries(entries []viewEntry) {
	for i := 1; i < len(entries); i++ {
		if !less(entries[i], entries[i-1]) {
			continue
		}
		e := entries[i]
		j := i
		for ; j > 0 && less(e, entries[j-1]); j-- {
			entries[j] = entries[j-1]
		}
		entries[j] = e
	}
}

// firstEntries moves the k entries that come first in (key, seq) order to
// entries[:k], in order, and leaves the rest behind them in no order — what a
// caller that consumes a prefix needs of a sort. Small inputs keep a sorted
// window of k and pass every later entry by it in one comparison unless it
// belongs inside; large ones are sorted whole.
func firstEntries(entries []viewEntry, k int) {
	if k <= 0 {
		return
	}
	if k >= len(entries) || len(entries) > insertionMax {
		sortEntries(entries)
		return
	}
	insertionSortEntries(entries[:k])
	for i := k; i < len(entries); i++ {
		if !less(entries[i], entries[k-1]) {
			continue
		}
		e := entries[i]
		entries[i] = entries[k-1]
		j := k - 1
		for ; j > 0 && less(e, entries[j-1]); j-- {
			entries[j] = entries[j-1]
		}
		entries[j] = e
	}
}

// librarySortEntries is sortEntries' large-input half.
func librarySortEntries(entries []viewEntry) {
	sorted := true
	for i := 1; i < len(entries); i++ {
		if less(entries[i], entries[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	slices.SortFunc(entries, func(a, b viewEntry) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

// insertionMax is the largest input sortEntries sorts by straight insertion:
// a measured constant (BenchmarkSortEntries, 2-vCPU box, ns per sort,
// insertion vs library). In random order insertion leads up to the crossover
// at 64 entries (32: 526 vs 607; 64: 1,815 vs 1,762; 96: 3,543 vs 2,957);
// one swap from sorted it leads 2-4x at every size; in reversed order, its
// worst case, it leads to 16 entries, trails 1.6x at 32 (918 vs 587) and 9x
// at 64, where the library sort recognises the pattern. 32 holds the worst
// case inside 2x and covers the paper's admission cap of 30 running jobs.
const insertionMax = 32

func less(a, b viewEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// fillEntry is one job in a water-filling pass, by view index.
type fillEntry struct {
	idx    int32
	demand float64
	weight float64
}

// orderFill is the dense core of the serve-in-key-order policies: order the
// jobs by (key, Seq), starting from the order the previous call left in
// *scratch (carriedEntries), and grant each min(demand, remaining capacity)
// in that order, adding the grants to shares by view index.
func orderFill(scratch *[]viewEntry, at *[]int32, capacity float64, jobs []JobView, slots []int32, key func(JobView) float64, shares *Shares) {
	entries := carriedEntries(scratch, at, jobs, slots, key)
	sortEntries(entries)
	fillInOrder(entries, capacity, jobs, shares)
}

// fillInOrder grants each job min(demand, remaining capacity) in the order of
// the sorted entries, adding the grants to shares by view index.
func fillInOrder(entries []viewEntry, capacity float64, jobs []JobView, shares *Shares) {
	for i := range entries {
		if capacity <= 0 {
			break
		}
		d := jobs[entries[i].idx].ReadyDemand()
		if d <= 0 {
			continue
		}
		x := d
		if capacity < x {
			x = capacity
		}
		shares.Add(int(entries[i].idx), x)
		capacity -= x
	}
}

// fillActive performs demand-capped weighted max-min sharing (progressive
// water filling) over the active entries, compacting the slice in place as
// jobs saturate. Shares are added into out by view index; the return value
// is the total granted, accumulated in deterministic entry order.
func fillActive(capacity float64, active []fillEntry, out *Shares) float64 {
	const eps = 1e-12
	var granted float64
	for capacity > eps && len(active) > 0 {
		var totalW float64
		for i := range active {
			totalW += active[i].weight
		}
		perWeight := capacity / totalW
		// Saturate every job whose demand is within its proportional share.
		k := 0
		saturated := false
		for i := range active {
			e := active[i]
			share := perWeight * e.weight
			if e.demand <= share+eps {
				out.Add(int(e.idx), e.demand)
				capacity -= e.demand
				granted += e.demand
				saturated = true
			} else {
				active[k] = e
				k++
			}
		}
		if !saturated {
			// No bottlenecked jobs: everyone takes the proportional share.
			for i := range active {
				x := perWeight * active[i].weight
				out.Add(int(active[i].idx), x)
				granted += x
			}
			return granted
		}
		active = active[:k]
	}
	return granted
}

// weightedFill is the dense core of the sharing policies: fillActive over
// the jobs with positive demand and weight, into shares, reusing scratch for
// the active set.
func weightedFill(scratch *[]fillEntry, capacity float64, jobs []JobView, weight func(JobView) float64, shares *Shares) {
	active := slices.Grow((*scratch)[:0], len(jobs)) // grown once, not by doubling
	for i, j := range jobs {
		d := j.ReadyDemand()
		w := weight(j)
		if d <= 0 || w <= 0 {
			continue
		}
		active = append(active, fillEntry{idx: int32(i), demand: d, weight: w})
	}
	*scratch = active
	fillActive(capacity, active, shares)
}
