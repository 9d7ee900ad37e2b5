package substrate

import "fmt"

// Queue is the paper's job-admission module, generic over the substrate's
// job record: arrived jobs wait in submission order and are released while
// the running-job cap allows, each receiving a dense admission sequence
// number — the tie-break every policy and launch comparator uses, so
// admission order is what makes runs deterministic. Like the rest of the
// kernel it is single-loop state: not safe for concurrent use.
type Queue[J any] struct {
	limit int // max concurrently running jobs; 0 means unlimited
	// The waiting jobs are waiting[head:]. Admit advances head instead of
	// re-slicing, so the backing array is kept (a re-sliced queue loses its
	// capacity with every pop and reallocates on the next Push), and zeroes
	// each released slot, so the array never keeps a released job reachable.
	waiting []J
	head    int
	running int
	nextSeq int
}

// NewQueue returns an admission queue bounding concurrently running jobs to
// limit; 0 means unlimited.
func NewQueue[J any](limit int) *Queue[J] {
	return &Queue[J]{limit: limit}
}

// Push appends an arrived job to the waiting queue. A queue that never
// drains (a binding cap under sustained load) would otherwise grow its
// array with every job ever pushed: when the array is full and at least
// half of it is released slots, the waiting jobs move to the front instead,
// which keeps the array within a constant factor of the peak backlog at an
// amortized constant cost per Push.
func (q *Queue[J]) Push(j J) {
	if len(q.waiting) == cap(q.waiting) && q.head > 0 && q.head >= len(q.waiting)/2 {
		n := copy(q.waiting, q.waiting[q.head:])
		clear(q.waiting[n:])
		q.waiting = q.waiting[:n]
		q.head = 0
	}
	q.waiting = append(q.waiting, j)
}

// Admit releases waiting jobs in FIFO order while the running-job cap
// allows, calling release with each job and its admission sequence number.
func (q *Queue[J]) Admit(release func(j J, seq int)) {
	for q.head < len(q.waiting) {
		if q.limit > 0 && q.running >= q.limit {
			return
		}
		j := q.waiting[q.head]
		var zero J
		q.waiting[q.head] = zero
		q.head++
		if q.head == len(q.waiting) {
			// Drained: rewind to the start of the backing array.
			q.waiting = q.waiting[:0]
			q.head = 0
		}
		q.running++
		seq := q.nextSeq
		q.nextSeq++
		release(j, seq)
	}
}

// Done records one running job's completion, freeing an admission slot.
func (q *Queue[J]) Done() { q.running-- }

// Running is the number of admitted, uncompleted jobs.
func (q *Queue[J]) Running() int { return q.running }

// Waiting is the number of arrived jobs still held by the admission module.
func (q *Queue[J]) Waiting() int { return len(q.waiting) - q.head }

// Stuck reports the inconsistency a substrate checks for when its cluster
// has gone idle with jobs still waiting: admission can never release them,
// so the run would hang. The substrate name prefixes the error ("engine",
// "fluid").
func (q *Queue[J]) Stuck(substrate string) error {
	return fmt.Errorf("%s: %d jobs stuck in admission with empty cluster", substrate, q.Waiting())
}
