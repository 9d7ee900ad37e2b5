package sched

// The window lists: a list that loses elements from either side and gains
// them at its end, kept as a window on the backing array it was grown in.
// Cut moves whichever side of the cut holds fewer elements, so a window's
// head may advance; Room slides a window back to its array's start before it
// grows it. They are the only list code of the kernel: the substrates' view
// registration (substrate.ViewSet) and the fluid simulator's active list,
// LAS_MQ's queues and the answer's share column (Shares) all grow through
// them.

// growFloor is the smallest capacity Grow gives a list: a streamed run's live
// set starts at one job, and growing by doubling from one would cost every
// fresh arena a dozen small allocations.
const growFloor = 64

// Grow returns s with room for at least n elements, keeping its contents:
// at least growFloor, then as append grows a slice (doubling while small, by
// a quarter once large). A list Cut may have advanced grows with Room.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	if cap(s) < growFloor {
		return append(make([]T, 0, max(growFloor, n)), s...)
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)[:len(s)]
}

// Room returns the window s with room for n elements: when it lacks it, s
// slides back to the start of its array, *base, zeroing what it vacates, and
// then grows as Grow does, *base following a grown array.
func Room[T any](base *[]T, s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	if b := (*base)[:cap(*base)]; cap(b) > cap(s) {
		m := copy(b, s)
		clear(b[m : len(b)-cap(s)+m])
		s = b[:m]
	}
	if s = Grow(s, n); cap(s) > cap(*base) {
		*base = s
	}
	return s
}

// Cut removes from s the elements at the indices gone lists, strictly
// ascending, keeping the others in order: the shorter side moves, the window's
// head advancing when it is the front (see Room), each run between two
// removed elements in one copy. The vacated elements are zeroed.
func Cut[T any](s []T, gone []int32) []T {
	if len(gone) == 0 {
		return s
	}
	first, last := int(gone[0]), int(gone[len(gone)-1])
	if first+last+1 < len(s) { // fewer kept before last than after first
		w := last + 1
		for k := len(gone) - 1; k > 0; k-- {
			w -= copy(s[w-int(gone[k]-gone[k-1]-1):w], s[gone[k-1]+1:gone[k]])
		}
		w -= copy(s[w-first:w], s[:first])
		clear(s[:w])
		return s[w:]
	}
	w := first
	for k := 1; k < len(gone); k++ {
		w += copy(s[w:], s[gone[k-1]+1:gone[k]])
	}
	w += copy(s[w:], s[last+1:])
	clear(s[w:])
	return s[:w]
}
