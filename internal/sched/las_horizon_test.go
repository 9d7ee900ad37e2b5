package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// collectSortHorizon is LAS's horizon as it was computed before it read its
// round's order: every view's attained service collected and sorted afresh,
// and each served job's next level strictly above its own found by binary
// search over those levels.
func collectSortHorizon(now float64, jobs []JobView, shares *Shares) float64 {
	levels := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		levels = append(levels, j.Attained())
	}
	sort.Float64s(levels)

	horizon := math.Inf(1)
	col := shares.Col()
	for _, i := range shares.Served() {
		rate := col[i]
		if rate <= 0 {
			continue
		}
		a := jobs[i].Attained()
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

// tieLevel returns an attained service for a new or moved view: usually one
// of a few base levels, or one at, just inside or just beyond lasTieEps above
// a level some view already holds, so tie groups meet the tolerance at its
// edges.
func tieLevel(r *rand.Rand, views []*orderView) float64 {
	if len(views) == 0 || r.Intn(3) == 0 {
		return float64(r.Intn(6)) * 2.5
	}
	a := views[r.Intn(len(views))].attained
	switch r.Intn(4) {
	case 0:
		return a + lasTieEps
	case 1:
		return a + lasTieEps*(1-1e-3)
	case 2:
		return a + lasTieEps*(1+1e-3)
	}
	return a + r.Float64()*3
}

// TestLASHorizonMatchesCollectSort drives LAS's dense form, its map form
// (Assign, then Horizon) and a theta = 0.5 Blend of LAS and Fair round after
// round over random view sets — ties exactly at, just inside and just beyond
// lasTieEps, views without ready demand, one view up to 200, and rounds whose
// capacity serves every view — and requires every horizon to equal, bit for
// bit, collectSortHorizon's over the answer the same round gave. Served jobs
// gain service between rounds, a few leave and newcomers take their slots,
// so the order LAS carries from round to round is repaired every round.
func TestLASHorizonMatchesCollectSort(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 17, 32, 33, 64, 200}
	finite, allServed := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("seed%d/n%d", seed, n), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed*1000 + int64(n)))
				dense, mapped := NewLAS(), NewLAS()
				blend, err := NewBlend(NewLAS(), NewFair(), 0.5)
				if err != nil {
					t.Fatal(err)
				}
				var views []*orderView
				var slots, free []int32
				seq := 0
				arrive := func() {
					seq++
					ready := float64(1 + r.Intn(4))
					if r.Intn(4) == 0 {
						ready = 0
					}
					slot := int32(len(views))
					if k := len(free); k > 0 {
						slot, free = free[k-1], free[:k-1]
					}
					views = append(views, &orderView{id: seq, seq: seq, attained: tieLevel(r, views), ready: ready})
					slots = append(slots, slot)
				}
				for len(views) < n {
					arrive()
				}
				var shares Shares
				for round := 0; round < 12; round++ {
					now := float64(round) * 1.5
					jobs := make([]JobView, len(views))
					var demand float64
					for i, v := range views {
						jobs[i] = v
						demand += v.ready
					}
					capacity := float64(1 + r.Intn(2*n))
					if round%3 == 2 {
						capacity = demand + 1 // every view with demand is served
						allServed++
					}
					check := func(form string, got float64, answer *Shares) {
						t.Helper()
						want := collectSortHorizon(now, jobs, answer)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("round %d, %s: horizon %v, collect-and-sort %v", round, form, got, want)
						}
					}

					shares.Reset(len(jobs))
					dense.AssignDense(now, capacity, jobs, slots, nil, nil, &shares)
					h := dense.HorizonDense(now, jobs, slots, &shares)
					check("dense", h, &shares)
					if !math.IsInf(h, 1) {
						finite++
					}

					alloc := mapped.Assign(now, capacity, jobs)
					var fromMap Shares
					fromMap.Reset(len(jobs))
					for i, j := range jobs {
						if x := alloc[j.ID()]; x != 0 {
							fromMap.Add(i, x)
						}
					}
					check("map", mapped.Horizon(now, jobs, alloc), &fromMap)

					var blended Shares
					blended.Reset(len(jobs))
					blend.AssignDense(now, capacity, jobs, slots, nil, nil, &blended)
					check("blend", blend.HorizonDense(now, jobs, slots, &blended), &blended)

					// The served jobs gain service — often onto a tie edge —
					// then a few jobs leave and as many arrive.
					col := shares.Col()
					for _, i := range shares.Served() {
						if r.Intn(2) == 0 {
							views[i].attained = tieLevel(r, views)
						} else {
							views[i].attained += col[i] * r.Float64()
						}
					}
					keepViews, keepSlots := views[:0], slots[:0]
					for i, v := range views {
						if r.Intn(6) == 0 {
							free = append(free, slots[i])
							continue
						}
						keepViews, keepSlots = append(keepViews, v), append(keepSlots, slots[i])
					}
					views, slots = keepViews, keepSlots
					for len(views) < n {
						arrive()
					}
					r.Shuffle(len(views), func(i, j int) {
						views[i], views[j] = views[j], views[i]
						slots[i], slots[j] = slots[j], slots[i]
					})
				}
			})
		}
	}
	if finite == 0 || allServed == 0 {
		t.Fatalf("%d finite horizons and %d all-served rounds: the inputs never exercised the search", finite, allServed)
	}
}

// TestBlendHorizonAsksActivePart checks that a blend at theta 0 or 1 asks
// only the component it ran for a horizon: the inactive LAS, whose order is
// left from an earlier round over other views, would report a catch-up at
// t = 1 that the active LAS's answer does not have.
func TestBlendHorizonAsksActivePart(t *testing.T) {
	for _, theta := range []float64{0, 1} {
		stale := NewLAS()
		old := []JobView{
			&orderView{id: 1, seq: 1, attained: 0, ready: 1},
			&orderView{id: 2, seq: 2, attained: 1, ready: 1},
		}
		var shares Shares
		shares.Reset(len(old))
		stale.AssignDense(0, 10, old, []int32{0, 1}, nil, nil, &shares)

		parts := [2]Scheduler{NewLAS(), stale}
		if theta == 1 {
			parts[0], parts[1] = parts[1], parts[0]
		}
		b, err := NewBlend(parts[0], parts[1], theta)
		if err != nil {
			t.Fatal(err)
		}
		// The job at 0 runs at rate 1 (its demand); the one at 50 takes the
		// rest and has no level above it: the catch-up is at t = 50.
		jobs := []JobView{
			&orderView{id: 3, seq: 3, attained: 0, ready: 1},
			&orderView{id: 4, seq: 4, attained: 50, ready: 100},
		}
		slots := []int32{0, 1}
		shares.Reset(len(jobs))
		b.AssignDense(0, 10, jobs, slots, nil, nil, &shares)
		if h := b.HorizonDense(0, jobs, slots, &shares); h != 50 {
			t.Errorf("theta %v: blend horizon %v, want the active LAS's 50", theta, h)
		}
	}
}
