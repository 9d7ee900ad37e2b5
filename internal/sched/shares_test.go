package sched_test

import (
	"slices"
	"testing"

	"lasmq/internal/sched"
)

// TestSharesAnswer: an answer lists, strictly ascending, exactly the views
// whose share is nonzero, however the grants came — out of order, twice to
// one view, zero, or cancelling to zero — both on its first read, which finds
// them in the column, and once sparse, from the marks; and Reset clears the
// previous answer whether the next one is over fewer or more views.
func TestSharesAnswer(t *testing.T) {
	type grant struct {
		i int
		x float64
	}
	for _, tc := range []struct {
		name   string
		grants []grant
		served []int32
		col    []float64
	}{
		{"ascending", []grant{{0, 1}, {2, 3}}, []int32{0, 2}, []float64{1, 0, 3, 0}},
		{"descending", []grant{{3, 1}, {1, 2}, {0, 4}}, []int32{0, 1, 3}, []float64{4, 2, 0, 1}},
		{"twice", []grant{{1, 1}, {2, 1}, {1, 0.5}}, []int32{1, 2}, []float64{0, 1.5, 1, 0}},
		{"zero", []grant{{1, 0}, {2, 1}}, []int32{2}, []float64{0, 0, 1, 0}},
		{"cancelled", []grant{{1, 1}, {2, 1}, {1, -1}}, []int32{2}, []float64{0, 0, 1, 0}},
		{"cancelled, granted again", []grant{{1, 1}, {1, -1}, {3, 2}, {1, 2}}, []int32{1, 3}, []float64{0, 2, 0, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s sched.Shares
			for _, n := range []int{200, 4} { // a previous, larger answer to clear first
				s.Reset(n)
				for i := 0; i < n; i += 3 {
					s.Add(i, 1)
				}
			}
			for round := range 2 {
				s.Reset(4)
				for _, g := range tc.grants {
					s.Add(g.i, g.x)
				}
				if got := s.Served(); !slices.Equal(got, tc.served) || !slices.Equal(s.Col(), tc.col) {
					t.Fatalf("round %d: served %v, column %v; want %v, %v", round, got, s.Col(), tc.served, tc.col)
				}
			}
			s.Reset(300)
			if len(s.Served()) != 0 || slices.ContainsFunc(s.Col(), func(x float64) bool { return x != 0 }) {
				t.Fatalf("after Reset: served %v, a nonzero share left in the column", s.Served())
			}
		})
	}
}

// TestGrowSlots: a per-slot array that already indexes the slot comes back as
// it is; one that does not is copied, records kept and new ones zero, to
// exactly max(slot+1, views, twice its length, 32) records, with no capacity
// beyond them.
func TestGrowSlots(t *testing.T) {
	for _, tc := range []struct {
		have, slot, views, want int
	}{
		{0, 0, 1, 32},       // the floor
		{0, 0, 100, 100},    // the first round's view count
		{32, 32, 1, 64},     // doubling
		{512, 512, 3, 1024}, // doubling, where append would round up
		{64, 300, 1, 301},   // the slot itself
		{64, 10, 1, 64},     // in range: no copy
	} {
		recs := make([]int, tc.have)
		for i := range recs {
			recs[i] = i + 1
		}
		got := sched.GrowSlots(recs, tc.slot, tc.views)
		if len(got) != tc.want || cap(got) != tc.want {
			t.Fatalf("GrowSlots(%d records, slot %d, %d views): length %d, capacity %d; want %d",
				tc.have, tc.slot, tc.views, len(got), cap(got), tc.want)
		}
		for i, x := range got {
			want := 0
			if i < tc.have {
				want = i + 1
			}
			if x != want {
				t.Fatalf("record %d is %d after growth, want %d", i, x, want)
			}
		}
	}
}
