package sched_test

import (
	"math/rand"
	"slices"
	"testing"

	"lasmq/internal/sched"
)

// cutBefore is Cut as it was before it moved the shorter side: every kept
// element behind gone[0] moves forward. TestCut holds Cut to it.
func cutBefore(s []int, gone []int32) []int {
	if len(gone) == 0 {
		return s
	}
	w := int(gone[0])
	for k, g := range gone {
		end := len(s)
		if k+1 < len(gone) {
			end = int(gone[k+1])
		}
		w += copy(s[w:], s[g+1:end])
	}
	clear(s[w:])
	return s[:w]
}

// count returns 1..n.
func count(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	return s
}

// cutWindow returns 1..n cut at gone, with the array it is a window on and
// the window's head in it.
func cutWindow(n int, gone []int32) (s, got []int, head int) {
	s = count(n)
	got = sched.Cut(s, gone)
	return s, got, cap(s) - cap(got)
}

// zeroOutside fails t unless every element of s outside the window
// [head, head+n) is zero, so nothing stays pinned.
func zeroOutside(t *testing.T, s []int, head, n int, what string) {
	t.Helper()
	for i, x := range s {
		if (i < head || i >= head+n) && x != 0 {
			t.Fatalf("%s left %d at %d outside its window [%d, %d): %v", what, x, i, head, head+n, s)
		}
	}
}

// TestCut: on random lengths and ascending gone lists, Cut keeps what
// cutBefore keeps, in the same order, and zeroes every element of the array
// outside the window it returns. A one-index cut (LAS_MQ's removeEntry)
// deletes that element and moves only the shorter side, the window's head
// advancing by one exactly when that side is the front. A window cut at the
// front and refilled through Room slides back to its array's start without
// allocating.
func TestCut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(48)
		var gone []int32
		p := rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				gone = append(gone, int32(i))
			}
		}
		s, got, head := cutWindow(n, gone)
		if want := cutBefore(count(n), gone); !slices.Equal(got, want) {
			t.Fatalf("Cut(1..%d, %v) = %v; want %v", n, gone, got, want)
		}
		zeroOutside(t, s, head, len(got), "Cut")
	}

	for n := 1; n <= 9; n++ {
		for pos := 0; pos < n; pos++ {
			s, got, head := cutWindow(n, []int32{int32(pos)})
			if want := slices.Delete(count(n), pos, pos+1); !slices.Equal(got, want) {
				t.Fatalf("Cut(1..%d, [%d]) = %v; want %v", n, pos, got, want)
			}
			wantHead := 0
			if pos < n-1-pos { // fewer elements before pos than after it
				wantHead = 1
			}
			if head != wantHead {
				t.Fatalf("Cut(1..%d, [%d]): window head at %d; want %d", n, pos, head, wantHead)
			}
			zeroOutside(t, s, head, len(got), "a one-index Cut")
		}
	}

	base := make([]int, 0, 64)
	list := base
	for i := 0; i < cap(base); i++ {
		list = append(list, i)
	}
	next := len(list)
	allocs := testing.AllocsPerRun(100, func() {
		list = sched.Cut(list, []int32{0, 1, 2})
		for range 3 {
			list = append(sched.Room(&base, list, len(list)+1), next)
			next++
		}
	})
	if allocs != 0 || cap(base) != 64 || len(list) != 64 {
		t.Fatalf("cutting 3 at the front and adding as many: %v allocs, array of %d, %d elements; want 0, 64, 64",
			allocs, cap(base), len(list))
	}
	for i, x := range list {
		if want := next - len(list) + i; x != want {
			t.Fatalf("after the cuts the list is %v; want it to count up to %d", list, next-1)
		}
	}
}
