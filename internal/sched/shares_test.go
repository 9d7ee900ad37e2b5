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
