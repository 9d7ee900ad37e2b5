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

// ObserveHinter extends Observer for policies that can bound when their
// next state change happens: ObserveHorizon returns the earliest virtual
// time strictly after now at which Observe could mutate state, given
// per-job upper bounds on the growth rate of the policy's decision metric
// (for the fluid engine these are the exact allocation rates; the
// task-level engine passes conservative bounds derived from container
// usage). The engine may skip Observe calls before the horizon as long as
// the job set and the rate bounds are unchanged.
type ObserveHinter interface {
	Observer
	ObserveHorizon(now float64, jobs []JobView, rates Assignment) float64
}

// viewEntry caches one job's sort key and tie-break so ordering policies
// sort concrete data instead of making interface calls inside a
// reflection-based comparator. idx is the job's position in the round's view
// slice, which is also where its share goes.
type viewEntry struct {
	key float64
	seq int
	idx int32
}

// buildEntries fills scratch (reusing its backing array) with
// (key(j), Seq, index) for every job.
func buildEntries(scratch *[]viewEntry, jobs []JobView, key func(JobView) float64) []viewEntry {
	entries := (*scratch)[:0]
	for i, j := range jobs {
		entries = append(entries, viewEntry{key: key(j), seq: j.Seq(), idx: int32(i)})
	}
	*scratch = entries
	return entries
}

// sortEntries orders entries by (key, seq) ascending. Sequence numbers are
// unique, so the order is total and a stable sort is equivalent to any
// correct sort. Already-ordered input — the common case round over round —
// is detected with one linear scan and skipped.
func sortEntries(entries []viewEntry) {
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

// orderFill is the dense core of the serve-in-key-order policies: sort the
// jobs by (key, Seq) and grant each min(demand, remaining capacity) in that
// order, writing the shares by view index into the zeroed shares.
func orderFill(scratch *[]viewEntry, capacity float64, jobs []JobView, key func(JobView) float64, shares []float64) {
	clear(shares)
	entries := buildEntries(scratch, jobs, key)
	sortEntries(entries)
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
		shares[entries[i].idx] = x
		capacity -= x
	}
}

// fillActive performs demand-capped weighted max-min sharing (progressive
// water filling) over the active entries, compacting the slice in place as
// jobs saturate. Shares are added into out by view index; the return value
// is the total granted, accumulated in deterministic entry order.
func fillActive(capacity float64, active []fillEntry, out []float64) float64 {
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
				out[e.idx] += e.demand
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
				out[active[i].idx] += x
				granted += x
			}
			return granted
		}
		active = active[:k]
	}
	return granted
}

// weightedFill is the dense core of the sharing policies: fillActive over
// the jobs with positive demand and weight, into the zeroed shares, reusing
// scratch for the active set.
func weightedFill(scratch *[]fillEntry, capacity float64, jobs []JobView, weight func(JobView) float64, shares []float64) {
	clear(shares)
	active := (*scratch)[:0]
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

// clearAssignment empties out in place (policies clear their output buffer
// at the top of AssignInto).
func clearAssignment(out Assignment) {
	clear(out)
}

// assignInto dispatches to p's AssignInto when implemented, otherwise
// copies a fresh p.Assign result into out. Wrapper policies (Blend) use it
// so arbitrary components keep working.
func assignInto(p Scheduler, now, capacity float64, jobs []JobView, out Assignment) {
	if ba, ok := p.(BufferedAssigner); ok {
		ba.AssignInto(now, capacity, jobs, out)
		return
	}
	clearAssignment(out)
	for id, x := range p.Assign(now, capacity, jobs) {
		out[id] = x
	}
}
