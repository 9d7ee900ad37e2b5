package sched

import (
	"math"
	"sort"
)

// LAS is the least-attained-service baseline: all capacity goes to the jobs
// that have received the least service so far. Jobs whose attained service is
// (numerically) equal form a tie group and share capacity evenly, which makes
// the policy degrade to processor sharing when many equal-size jobs are
// present — exactly the pathology LAS_MQ is designed to avoid.
//
// The scheduler carries sort and water-filling scratch, so one instance must
// not be shared between concurrent simulation runs.
type LAS struct {
	entries []viewEntry // between rounds: the last round's order (see orderedEntries)
	at      []int32     // orderedEntries' slot -> view index scratch
	fill    []fillEntry
	levels  []float64
	shares  []float64 // the map forms' scratch for the dense forms' slices
}

// NewLAS returns the LAS baseline scheduler.
func NewLAS() *LAS { return &LAS{} }

var (
	_ Scheduler        = (*LAS)(nil)
	_ BufferedAssigner = (*LAS)(nil)
	_ Hinter           = (*LAS)(nil)
	_ DenseAssigner    = (*LAS)(nil)
	_ DenseHinter      = (*LAS)(nil)
)

// lasTieEps is the tolerance under which two attained-service values are
// considered equal and their jobs share capacity evenly. Without a tolerance
// the fluid simulation would ping-pong between tied jobs in zero-length
// steps.
const lasTieEps = 1e-6

// Name implements Scheduler.
func (l *LAS) Name() string { return "LAS" }

// Assign implements Scheduler.
func (l *LAS) Assign(now float64, capacity float64, jobs []JobView) Assignment {
	out := make(Assignment, len(jobs))
	l.AssignInto(now, capacity, jobs, out)
	return out
}

// AssignInto implements BufferedAssigner.
func (l *LAS) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	assignViaDense(l, &l.shares, now, capacity, jobs, out)
}

// AssignDense implements DenseAssigner.
func (l *LAS) AssignDense(now, capacity float64, jobs []JobView, slots []int32, shares []float64) {
	clear(shares)
	entries := l.orderedEntries(jobs, slots)
	i := 0
	for i < len(entries) && capacity > 0 {
		// Collect the tie group starting at i.
		groupEnd := i + 1
		for groupEnd < len(entries) && entries[groupEnd].key-entries[i].key <= lasTieEps {
			groupEnd++
		}
		// Evenly share remaining capacity within the group, capped by demand
		// (unweighted max-min). Grants and the capacity they consume are
		// accumulated in group order, keeping the result deterministic.
		active := l.fill[:0]
		for _, e := range entries[i:groupEnd] {
			if d := jobs[e.idx].ReadyDemand(); d > 0 {
				active = append(active, fillEntry{idx: e.idx, demand: d, weight: 1})
			}
		}
		l.fill = active
		capacity -= fillActive(capacity, active, shares)
		i = groupEnd
	}
}

// orderedEntries returns the jobs' entries in (attained, seq) order. Between
// two rounds few jobs overtake each other, so with slots to recognise the jobs
// by, the entries are rebuilt in the order the last round left them in —
// departed jobs dropped, new ones appended — and sortEntries repairs that in
// about one comparison per job. The view order it would otherwise start from
// is close to the reverse: views arrive oldest first, and the oldest jobs
// have attained the most. A reissued slot puts its new owner where the old
// one stood, which costs that one entry a longer walk and nothing else.
func (l *LAS) orderedEntries(jobs []JobView, slots []int32) []viewEntry {
	if slots == nil {
		entries := buildEntries(&l.entries, jobs, JobView.Attained)
		sortEntries(entries)
		return entries
	}
	// at[slot] is the view index + 1 of the job holding slot this round, and
	// zero again once the job's entry is written.
	at := l.at
	for i, slot := range slots {
		if have := len(at); int(slot) >= have {
			want := max(int(slot)+1, len(jobs), 2*have, minEntries)
			at = append(make([]int32, 0, want), at...)[:want]
		}
		at[slot] = int32(i) + 1
	}
	l.at = at
	entry := func(i int32) viewEntry {
		return viewEntry{key: jobs[i].Attained(), seq: jobs[i].Seq(), idx: i, slot: slots[i]}
	}
	// Rewriting in place is safe: the write index never passes the read index.
	entries := l.entries[:0]
	for _, old := range l.entries {
		if int(old.slot) < len(at) && at[old.slot] != 0 {
			entries = append(entries, entry(at[old.slot]-1))
			at[old.slot] = 0
		}
	}
	entries = roomFor(entries, len(jobs))
	for i, slot := range slots {
		if at[slot] != 0 {
			entries = append(entries, entry(int32(i)))
			at[slot] = 0
		}
	}
	l.entries = entries
	sortEntries(entries)
	return entries
}

// Horizon implements Hinter: HorizonDense over the shares alloc holds.
func (l *LAS) Horizon(now float64, jobs []JobView, alloc Assignment) float64 {
	shares := sizeShares(&l.shares, len(jobs))
	for i, j := range jobs {
		shares[i] = alloc[j.ID()]
	}
	return l.HorizonDense(now, jobs, nil, shares)
}

// HorizonDense implements DenseHinter: the decision changes when a served
// job's attained service catches up with the attained service of a job that
// is currently ahead of it.
func (l *LAS) HorizonDense(now float64, jobs []JobView, _ []int32, shares []float64) float64 {
	// Collect attained levels of all jobs, and find for each served job the
	// next level strictly above its own.
	levels := l.levels[:0]
	for _, j := range jobs {
		levels = append(levels, j.Attained())
	}
	l.levels = levels
	sort.Float64s(levels)

	horizon := math.Inf(1)
	for i, j := range jobs {
		rate := shares[i]
		if rate <= 0 {
			continue
		}
		a := j.Attained()
		// Next attained level strictly above a (beyond the tie tolerance).
		idx := sort.SearchFloat64s(levels, a+lasTieEps)
		if idx >= len(levels) {
			continue
		}
		t := now + (levels[idx]-a)/rate
		if t < horizon {
			horizon = t
		}
	}
	if horizon <= now {
		return math.Inf(1)
	}
	return horizon
}
