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
	rem  []viewEntry // rows that can take a spare container: key -frac, seq the row
	held []heldRow   // trim's rows holding a container
	rows []QuantRow  // QuantizeInto's adapter scratch
	out  map[int]int // QuantizeInto's result
}

// heldRow is one row's key in the trim order: the whole containers it holds.
// Rows arrive in ascending ID, so row order is the ID tie-break.
type heldRow struct {
	row   int
	whole int
}

// QuantizeRows sets every row's Target to its whole-container share, never
// exceeding capacity, each row's Demand, or (in total) the sum of the
// fractional shares rounded to the nearest whole container. The task-level
// engine uses it to turn policy output into physical container counts.
//
// Rows must be in ascending ID: the share total is summed in row order and
// remainder ties break by row order, so the result — including the
// floating-point rounding of the total — is deterministic. Shares that are
// not positive and finite count for nothing and get Target 0, and a floored
// share too large for the conversion saturates, so the call terminates with a
// sane result on any input.
func (qz *Quantizer) QuantizeRows(rows []QuantRow, capacity int) {
	// Only rows whose floor cut off a remainder, and whose demand has room for
	// one container more, are candidates for the spare containers, so only
	// those are collected: the distribution used to walk all rows in remainder
	// order, pass over those without room and stop at the first without a
	// remainder.
	rem := qz.rem[:0]
	var allocTotal float64
	total := 0
	// A floored share saturates here, which keeps the sum of all of them
	// inside an int: int(f) of a float at or beyond 2⁶³ is not defined.
	maxWhole := math.MaxInt / (len(rows) + 1)
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
		whole := maxWhole
		if f := math.Floor(x + 1e-9); f < float64(maxWhole) {
			whole = int(f)
		}
		r.Target = whole
		total += whole
		if frac := x - float64(whole); frac > 1e-9 && float64(whole+1) <= r.Demand+1e-9 {
			rem = append(rem, viewEntry{key: -frac, seq: i})
		}
	}
	qz.rem = rem

	// The whole containers to hand out: the rounded share total, compared
	// with capacity as floats so that a huge total cannot wrap the
	// conversion, and never negative.
	budget := max(capacity, 0)
	if r := math.Round(allocTotal); r < float64(budget) {
		budget = int(r)
	}
	if total > budget {
		qz.trim(rows, total-budget)
		return
	}
	// Distribute the remaining whole containers (from summed fractions), one
	// each to the candidates with the largest remainders. Row order is ID
	// order, so (-frac, row) is a total order; every candidate taken is treated
	// alike, so they are selected, not sorted.
	if remaining := budget - total; remaining < len(rem) {
		firstEntries(rem, remaining)
		rem = rem[:remaining]
	}
	for _, q := range rem {
		rows[q.seq].Target++
	}
}

// trim takes excess containers back when the floored shares already exceed
// the budget (defensive: a policy over-allocated): from the largest holders
// first, one container each in rotation, a row dropping out of the rotation
// when it reaches zero — computed as whole rotations in closed form plus the
// partial one, so the cost is a sort of the holders, not a step per excess
// container. excess is positive and at most the targets' sum.
func (qz *Quantizer) trim(rows []QuantRow, excess int) {
	held := qz.held[:0]
	for i := range rows {
		if rows[i].Target > 0 {
			held = append(held, heldRow{row: i, whole: rows[i].Target})
		}
	}
	qz.held = held
	// Row order is ID order, so the comparator is a total order and the
	// unstable sort is deterministic; slices.SortFunc with a capture-free
	// comparator keeps the round free of sort.Slice's allocations.
	slices.SortFunc(held, func(a, b heldRow) int {
		if a.whole != b.whole {
			if a.whole > b.whole {
				return -1
			}
			return 1
		}
		return a.row - b.row
	})
	// Every full rotation takes one container from each row still holding
	// one. Walk the holders from the smallest: rotations rounds have been
	// completed, and held[:k] still hold more than that. Bringing held[k-1]
	// to zero takes held[k-1].whole-rotations further rounds of k containers
	// each; the first step the excess cannot pay for in full ends the walk.
	rotations, k := 0, len(held)
	for ; k > 0; k-- {
		rounds := held[k-1].whole - rotations
		if afford := excess / k; afford < rounds {
			rotations += afford
			excess -= afford * k
			break
		}
		rotations += rounds
		excess -= rounds * k
	}
	// held[k:] are at zero, held[:k] lose the full rotations, and the partial
	// rotation takes one more from its first excess rows (excess < k).
	for i, q := range held {
		switch {
		case i >= k:
			rows[q.row].Target = 0
		case i < excess:
			rows[q.row].Target = q.whole - rotations - 1
		default:
			rows[q.row].Target = q.whole - rotations
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
