package sched

import (
	"math"

	"lasmq/internal/dist"
)

// Gittins is the Gittins-index policy: the optimal non-anticipating
// scheduler for an M/G/1 queue (Gittins 1989; Aalto, Ayesta, Righter 2009).
// It knows the service *distribution* but not individual job sizes — the
// strongest baseline that plays by the same no-prior-information rules as
// LAS and LAS_MQ — and serves jobs in decreasing order of their Gittins
// index at their current attained service. The index is discretized once per
// distribution into a dist.GittinsTable, built lazily on first use.
//
// For distributions with decreasing hazard rate the index decreases in
// attained service and Gittins coincides with foreground-background (LAS);
// for exponential service the index is constant and any non-anticipating
// order is optimal; for the near-deterministic per-type clusters of the
// Table-I mix the index *increases* within a cluster, which is exactly the
// FIFO-within-queue behaviour LAS_MQ approximates without knowing the
// distribution.
//
// The scheduler carries its last order, so one instance must not be shared
// between concurrent simulation runs.
type Gittins struct {
	service dist.Service
	table   *dist.GittinsTable
	entries []viewEntry // between rounds: the last round's order (see carriedEntries)
	at      []int32     // carriedEntries' scratch
	maps    MapForms
}

// NewGittins returns the Gittins-index policy for the given service
// distribution. A nil distribution defaults to unit-mean exponential, under
// which the index is constant and the policy degrades to FIFO — the optimal
// non-anticipating behaviour for memoryless service.
func NewGittins(service dist.Service) *Gittins {
	if service == nil {
		service = dist.ExpService{M: 1}
	}
	return &Gittins{service: service}
}

var (
	_ Scheduler        = (*Gittins)(nil)
	_ BufferedAssigner = (*Gittins)(nil)
	_ Hinter           = (*Gittins)(nil)
	_ DenseAssigner    = (*Gittins)(nil)
	_ DenseHinter      = (*Gittins)(nil)
)

// Name implements Scheduler.
func (g *Gittins) Name() string { return "GITTINS" }

// lazyTable builds the discretized index on first use.
func (g *Gittins) lazyTable() *dist.GittinsTable {
	if g.table == nil {
		g.table = dist.NewGittinsTable(g.service)
	}
	return g.table
}

// Assign implements Scheduler.
func (g *Gittins) Assign(now, capacity float64, jobs []JobView) Assignment {
	return g.maps.Assign(g, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (g *Gittins) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	g.maps.AssignInto(g, now, capacity, jobs, out)
}

// Horizon implements Hinter.
func (g *Gittins) Horizon(now float64, jobs []JobView, alloc Assignment) float64 {
	return g.maps.Horizon(g, now, jobs, alloc)
}

// AssignDense implements DenseAssigner: jobs are served in decreasing index
// order (the table guarantees the index is never NaN, so the negated key
// totally orders with Seq as tie-break; an infinite index — a job past the
// distribution's support or sitting on a completion atom — sorts first and is
// driven to completion).
func (g *Gittins) AssignDense(now, capacity float64, jobs []JobView, slots, _, _ []int32, shares *Shares) {
	table := g.lazyTable()
	orderFill(&g.entries, &g.at, capacity, jobs, slots, func(j JobView) float64 {
		return -table.Index(j.Attained())
	}, shares)
}

// HorizonDense implements DenseHinter: the discretized index is constant
// between grid levels, so the ranking can only change when a served job's
// attained service crosses its next grid boundary.
func (g *Gittins) HorizonDense(now float64, jobs []JobView, _ []int32, shares *Shares) float64 {
	table := g.lazyTable()
	horizon := math.Inf(1)
	col := shares.Col()
	for _, i := range shares.Served() {
		rate := col[i]
		if rate <= 0 {
			continue
		}
		j := jobs[i]
		b := table.NextBoundary(j.Attained())
		if math.IsInf(b, 1) {
			continue
		}
		if t := now + (b-j.Attained())/rate; t > now && t < horizon {
			horizon = t
		}
	}
	if horizon <= now {
		return math.Inf(1)
	}
	return horizon
}
