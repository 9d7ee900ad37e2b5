package sched

import (
	"math"
	"slices"
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
	entries []viewEntry // between rounds: the last round's order (see carriedEntries)
	at      []int32     // carriedEntries' scratch
	fill    []fillEntry
	levels  []float64
	maps    MapForms
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
func (l *LAS) Assign(now, capacity float64, jobs []JobView) Assignment {
	return l.maps.Assign(l, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (l *LAS) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	l.maps.AssignInto(l, now, capacity, jobs, out)
}

// AssignDense implements DenseAssigner.
func (l *LAS) AssignDense(now, capacity float64, jobs []JobView, slots, _, _ []int32, shares *Shares) {
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
		active := slices.Grow(l.fill[:0], groupEnd-i)
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

// orderedEntries returns the jobs' entries in (attained, seq) order: with
// slots, the order the last round left them in (carriedEntries) repaired by
// sortEntries. The view order it would otherwise start from is close to the
// reverse: views arrive oldest first, and the oldest jobs have attained the
// most.
func (l *LAS) orderedEntries(jobs []JobView, slots []int32) []viewEntry {
	var entries []viewEntry
	if slots == nil {
		entries = buildEntries(&l.entries, jobs, JobView.Attained)
	} else {
		entries = carriedEntries(&l.entries, &l.at, jobs, slots, JobView.Attained)
	}
	sortEntries(entries)
	return entries
}

// Horizon implements Hinter.
func (l *LAS) Horizon(now float64, jobs []JobView, alloc Assignment) float64 {
	return l.maps.Horizon(l, now, jobs, alloc)
}

// HorizonDense implements DenseHinter: the decision changes when a served
// job's attained service catches up with the attained service of a job that
// is currently ahead of it.
func (l *LAS) HorizonDense(now float64, jobs []JobView, _ []int32, shares *Shares) float64 {
	// Collect attained levels of all jobs, and find for each served job the
	// next level strictly above its own.
	levels := slices.Grow(l.levels[:0], len(jobs))
	for _, j := range jobs {
		levels = append(levels, j.Attained())
	}
	l.levels = levels
	sort.Float64s(levels)

	horizon := math.Inf(1)
	col := shares.Col()
	for _, i := range shares.Served() {
		rate := col[i]
		if rate <= 0 {
			continue
		}
		a := jobs[i].Attained()
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
