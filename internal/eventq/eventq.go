// Package eventq implements the priority queue over virtual time used by the
// discrete-event simulators. Events with equal timestamps are delivered in
// insertion order, which keeps simulations deterministic.
//
// The simulators use Queue, the binary heap, and nothing else. Ladder has had
// no caller in the product since the engine's heap→ladder hybrid was measured
// to buy nothing and removed; it stays, with its fuzz differential against
// Queue, only because benchmark/replay.go instantiates it for the
// eventq.ladder_hold_ns replays. The next benchmark-scoped change that drops
// those replays should delete ladder.go and ladder_test.go with them.
package eventq

// Queue is a min-heap of values keyed by (time, insertion sequence).
// The zero value is an empty queue ready to use.
type Queue[T any] struct {
	items []entry[T]
	seq   uint64
}

type entry[T any] struct {
	time  float64
	seq   uint64
	value T
}

// Len reports the number of queued events.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push schedules value at the given virtual time.
func (q *Queue[T]) Push(time float64, value T) {
	q.items = append(q.items, entry[T]{time: time, seq: q.seq, value: value})
	q.seq++
	q.up(len(q.items) - 1)
}

// Peek returns the earliest event without removing it. ok is false if the
// queue is empty.
func (q *Queue[T]) Peek() (time float64, value T, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.items[0].time, q.items[0].value, true
}

// Pop removes and returns the earliest event. ok is false if the queue is
// empty.
func (q *Queue[T]) Pop() (time float64, value T, ok bool) {
	time, value, ok = q.popNoShrink()
	if ok {
		q.shrink()
	}
	return time, value, ok
}

// popNoShrink is Pop without the capacity check, so batch drains can defer
// the (reallocating) shrink until the whole batch is out instead of paying a
// quarter-capacity copy on every element.
func (q *Queue[T]) popNoShrink() (time float64, value T, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return 0, zero, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top.time, top.value, true
}

// PopBatch removes every event sharing the earliest timestamp and appends
// them, in insertion order, to buf[:0] — so callers can reuse one buffer
// across calls instead of allocating a slice per batch. ok is false if the
// queue is empty. The backing array is shrunk at most once per batch, after
// the last element is out.
func (q *Queue[T]) PopBatch(buf []T) (time float64, batch []T, ok bool) {
	batch = buf[:0]
	t, first, ok := q.popNoShrink()
	if !ok {
		return 0, batch, false
	}
	batch = append(batch, first)
	for {
		nt, _, ok := q.Peek()
		if !ok || nt != t {
			q.shrink()
			return t, batch, true
		}
		_, v, _ := q.popNoShrink()
		batch = append(batch, v)
	}
}

// Reset empties the queue while keeping its backing array, so one Queue can
// be reused across simulation runs. The insertion-sequence counter restarts,
// making a reset queue indistinguishable from a fresh one.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items = q.items[:0]
	q.seq = 0
}

// shrinkMin is the capacity below which the heap's backing array is never
// reallocated downward (shrinking tiny slices would only cause churn).
const shrinkMin = 64

// shrink reallocates the backing array once occupancy falls below a quarter
// of its capacity, returning memory after the simulation's event population
// peaks (e.g. all arrivals pushed up front, then drained).
func (q *Queue[T]) shrink() {
	if c := cap(q.items); c > shrinkMin && len(q.items) < c/4 {
		items := make([]entry[T], len(q.items), c/2)
		copy(items, q.items)
		q.items = items
	}
}

func (q *Queue[T]) less(i, j int) bool {
	if q.items[i].time != q.items[j].time {
		return q.items[i].time < q.items[j].time
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
