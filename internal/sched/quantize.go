package sched

import (
	"math"
	"slices"
)

// QuantRow is one job's line in a dense quantization round: the fractional
// Share a policy assigned it, its ready container Demand (+Inf = uncapped),
// and — written by QuantizeRows — its whole-container Target.
type QuantRow struct {
	ID     int
	Share  float64
	Demand float64
	Target int
}

// Quantizer converts fractional container shares into whole containers
// using the largest-remainder method, reusing internal scratch and the
// result map across rounds so quantization is allocation-free on the hot
// path. One Quantizer must not be shared between concurrent simulations;
// the map QuantizeInto returns is valid until its next call.
type Quantizer struct {
	rem  []qrem
	rows []QuantRow  // QuantizeInto's adapter scratch
	out  map[int]int // QuantizeInto's result
}

// qrem is one counted row's sort key: its floored share (the trim order) and
// the fraction the floor cut off (the remainder order). Rows arrive in
// ascending ID, so row order is the ID tie-break.
type qrem struct {
	row   int
	whole int
	frac  float64
}

// QuantizeRows sets every row's Target to its whole-container share, never
// exceeding capacity, each row's Demand, or (in total) the sum of the
// fractional shares rounded to the nearest whole container. The task-level
// engine uses it to turn policy output into physical container counts.
//
// Rows must be in ascending ID: the share total is summed in row order and
// remainder ties break by row order, so the result — including the
// floating-point rounding of the total — is deterministic. Shares that are
// not positive and finite count for nothing and get Target 0, so the call
// terminates with a sane result on any input.
func (qz *Quantizer) QuantizeRows(rows []QuantRow, capacity int) {
	rem := qz.rem[:0]
	var allocTotal float64
	total := 0
	for i := range rows {
		r := &rows[i]
		r.Target = 0
		x := r.Share
		if !(x > 0) || math.IsInf(x, 1) {
			continue
		}
		allocTotal += x
		if x > r.Demand {
			x = r.Demand
		}
		whole := int(math.Floor(x + 1e-9))
		r.Target = whole
		rem = append(rem, qrem{row: i, whole: whole, frac: x - float64(whole)})
		total += whole
	}
	qz.rem = rem

	// The whole containers to hand out: the rounded share total, compared
	// with capacity as floats so that a huge total cannot wrap the
	// conversion, and never negative.
	budget := max(capacity, 0)
	if r := math.Round(allocTotal); r < float64(budget) {
		budget = int(r)
	}
	// Row order is ID order, so each comparator below is a total order and the
	// unstable sort is deterministic; slices.SortFunc with a capture-free
	// comparator keeps the round free of sort.Slice's allocations.
	if total > budget {
		// Defensive: the floored shares already exceed the budget (a policy
		// over-allocated); trim the largest holders first, one container each
		// in rotation. total > budget >= 0 means some row still holds one.
		slices.SortFunc(rem, func(a, b qrem) int {
			if a.whole != b.whole {
				return b.whole - a.whole
			}
			return a.row - b.row
		})
		for i := 0; total > budget; i = (i + 1) % len(rem) {
			if r := &rows[rem[i].row]; r.Target > 0 {
				r.Target--
				total--
			}
		}
		return
	}
	// Distribute the remaining whole containers (from summed fractions) to the
	// largest remainders first.
	remaining := budget - total
	if remaining == 0 {
		return
	}
	slices.SortFunc(rem, func(a, b qrem) int {
		if a.frac != b.frac {
			if a.frac > b.frac {
				return -1
			}
			return 1
		}
		return a.row - b.row
	})
	for _, q := range rem {
		if q.frac <= 1e-9 {
			break // sorted: no later row has a remainder either
		}
		if r := &rows[q.row]; float64(r.Target+1) <= r.Demand+1e-9 {
			r.Target++
			if remaining--; remaining == 0 {
				break
			}
		}
	}
}

// QuantizeInto is QuantizeRows behind maps: alloc's shares, capped by demand
// where it has an entry, come back as a map of the positive targets. Map
// iteration order cannot reach the result: the rows are sorted by job ID
// before the dense core sees them. Every substrate builds rows itself; the
// callers left are benchmark/replay.go's sched.quantize_ns replay and this
// package's tests, which `make layering` enforces, and the method goes when
// the replay does.
func (qz *Quantizer) QuantizeInto(alloc Assignment, demand map[int]float64, capacity int) map[int]int {
	rows := qz.rows[:0]
	for id, x := range alloc { // range-ok: rows are sorted by ID immediately below
		d, ok := demand[id]
		if !ok {
			d = math.Inf(1)
		}
		rows = append(rows, QuantRow{ID: id, Share: x, Demand: d})
	}
	slices.SortFunc(rows, func(a, b QuantRow) int { return a.ID - b.ID })
	qz.rows = rows
	qz.QuantizeRows(rows, capacity)
	if qz.out == nil {
		qz.out = make(map[int]int, len(rows))
	} else {
		clear(qz.out)
	}
	for i := range rows {
		if rows[i].Target > 0 {
			qz.out[rows[i].ID] = rows[i].Target
		}
	}
	return qz.out
}
