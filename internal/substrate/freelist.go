package substrate

// SlabPool is a chunked free-list arena: records are carved from fixed-size
// chunks (so pointers to them are stable for the pool's lifetime) and
// returned records are recycled before a new chunk is touched. It is the
// streaming substrates' complement to GrowSlab: where GrowSlab sizes a slab
// to the whole trace up front, a SlabPool holds only the records that are
// live at once, so a million-job run whose live set peaks at a few thousand
// jobs allocates a few thousand records — peak heap tracks live jobs, not
// trace length. Like the rest of the kernel it is single-loop state: not
// safe for concurrent use.
type SlabPool[T any] struct {
	// Reset, when non-nil, replaces the default zero-on-Get recycling: it
	// runs on each record as it is Put back (and again on every record at
	// Rewind, so it must not mind a record it has already reset), and must
	// leave the record equivalent to the zero value for the pool's users
	// while retaining any reusable backing capacity (slices trimmed to
	// length 0, not nil). Running at Put time means a parked record never
	// pins memory beyond what its Reset deliberately keeps.
	Reset func(*T)

	chunks [][]T
	free   []*T
	next   int // carve index into the newest chunk
	// warm counts the records at the bottom of the free list that Rewind put
	// there: taking one is a carve as far as the statistics go.
	warm  int
	stats SlabStats
}

// slabChunk is the per-chunk record count: large enough to amortize chunk
// allocations, small enough that a near-idle run wastes little.
const slabChunk = 1024

// SlabStats reports a pool's recycling behaviour: Live records currently
// checked out, the Peak live high-water mark, and how many Gets were served
// by Recycled (previously returned) records rather than fresh carves.
type SlabStats struct {
	Live     int
	Peak     int
	Recycled int
}

// Get returns a zeroed record, recycling a returned one when available.
func (p *SlabPool[T]) Get() *T {
	p.stats.Live++
	if p.stats.Live > p.stats.Peak {
		p.stats.Peak = p.stats.Live
	}
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		if p.Reset == nil {
			var zero T
			*x = zero
		}
		if n > p.warm {
			p.stats.Recycled++
		} else {
			p.warm--
		}
		return x
	}
	if len(p.chunks) == 0 || p.next == slabChunk {
		p.chunks = append(p.chunks, make([]T, slabChunk))
		p.next = 0
	}
	x := &p.chunks[len(p.chunks)-1][p.next]
	p.next++
	return x
}

// Put returns a record to the pool for recycling. The caller must not use it
// afterwards; the record is zeroed on its next Get, or — when Reset is set —
// reset immediately here.
func (p *SlabPool[T]) Put(x *T) {
	p.stats.Live--
	if p.Reset != nil {
		p.Reset(x)
	}
	p.free = append(p.free, x)
}

// Rewind ends a run on a pool that outlives it: every record carved so far,
// returned or not, goes back on the free list (scrubbed as Put would have),
// and the statistics restart. The next run then reports exactly the Stats a
// fresh pool would — records it takes from an earlier run count as carves,
// only records Put during the run count as Recycled — while reusing the
// chunks, and whatever backing capacity Reset keeps in each record, that
// earlier runs grew. No record handed out before Rewind may be used after.
func (p *SlabPool[T]) Rewind() {
	p.free = p.free[:0]
	for ci, chunk := range p.chunks {
		if ci == len(p.chunks)-1 {
			chunk = chunk[:p.next]
		}
		for i := range chunk {
			x := &chunk[i]
			if p.Reset != nil {
				p.Reset(x)
			}
			p.free = append(p.free, x)
		}
	}
	p.warm = len(p.free)
	p.stats = SlabStats{}
}

// Stats returns the pool's current recycling statistics.
func (p *SlabPool[T]) Stats() SlabStats { return p.stats }
