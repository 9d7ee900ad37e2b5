// Streaming kernel: the substrate-neutral machinery both simulators stream
// traces through. A Stream yields one item at a time in nondecreasing arrival
// order; a StreamCursor adapts it, backed by a SlabPool, to a run loop's
// peek/pop arrival split. Each simulator has one run loop fed by one such
// cursor, and its Run is a collector over that loop: fluid streams the slice
// itself, the task engine references to the slice's specs in arrival order.
// The contract moved here from internal/fluid so the trace substrate no
// longer has to import a simulator for the JobSpec type: fluid and trace
// alias Source/JobSpec from this package, and the task-level engine
// instantiates the same generics over its own job references.
package substrate

// Stream yields the items of a trace one at a time in nondecreasing arrival
// order. Next returns the next item and true, or a zero item and false once
// the stream is exhausted; an error aborts the consuming run. Implementations
// must be deterministic: two streams built from the same inputs (same seed,
// same bytes) must yield identical sequences, the property the streaming-
// versus-materialized differential tests pin.
type Stream[S any] interface {
	Next() (S, bool, error)
}

// JobSpec describes one flat trace job — the canonical spec type of the
// streaming kernel, re-exported as fluid.JobSpec and trace.JobSpec.
type JobSpec struct {
	// ID uniquely identifies the job within a trace.
	ID int
	// Arrival is the submission time.
	Arrival float64
	// Size is the total service demand in container-time units (the paper
	// normalizes Facebook job sizes to a mean of roughly 20).
	Size float64
	// Width is the job's maximum parallelism in containers (>= 1).
	Width float64
	// Priority in [1,5]; used by the Fair baseline.
	Priority int
	// SizeHint is the a priori estimate for SJF/SRTF; zero means exact.
	SizeHint float64
}

// Source is the canonical trace-source contract: a Stream of flat JobSpecs.
// fluid.Source and trace.Source alias it.
type Source = Stream[JobSpec]

// sliceStream adapts a materialized item list to the Stream interface.
type sliceStream[S any] struct {
	items []S
	i     int
}

// SliceStream returns a Stream that replays an in-memory list in slice order
// (the caller must have sorted it by arrival, as trace generators do).
func SliceStream[S any](items []S) Stream[S] { return &sliceStream[S]{items: items} }

func (s *sliceStream[S]) Next() (S, bool, error) {
	if s.i >= len(s.items) {
		var zero S
		return zero, false, nil
	}
	item := s.items[s.i]
	s.i++
	return item, true, nil
}

// Skip passes over the next item; Strided uses it.
func (s *sliceStream[S]) Skip() (bool, error) {
	if s.i >= len(s.items) {
		return false, nil
	}
	s.i++
	return true, nil
}

// skipper is the optional side of a Stream that Strided discovers: Skip
// passes over the next item exactly as Next would — leaving the stream where
// Next would, with the same ok and error — without building the item.
type skipper interface {
	Skip() (bool, error)
}

// Strided filters a stream down to one shard's items: of the stream's items
// (0-indexed), it yields those whose index is congruent to offset modulo
// stride. Each shard of a sharded run wraps its own independent stream
// instance, so shards never contend on a shared reader and a bounded worker
// pool cannot deadlock on a demultiplexed stream. Every shard still walks the
// whole sequence; when the stream has a Skip method, Strided passes over
// another shard's item through Skip, which saves building it, and otherwise
// reads it with Next and drops it.
func Strided[S any](src Stream[S], offset, stride int) Stream[S] {
	s := &stridedStream[S]{src: src, offset: offset, stride: stride}
	s.skip, _ = src.(skipper)
	return s
}

type stridedStream[S any] struct {
	src            Stream[S]
	skip           skipper // src's Skip, or nil
	offset, stride int
	i              int
}

func (s *stridedStream[S]) Next() (S, bool, error) {
	var zero S
	if s.skip != nil {
		for s.i%s.stride != s.offset {
			ok, err := s.skip.Skip()
			if !ok || err != nil {
				return zero, false, err
			}
			s.i++
		}
	}
	for {
		item, ok, err := s.src.Next()
		if !ok || err != nil {
			return zero, false, err
		}
		mine := s.i%s.stride == s.offset
		s.i++
		if mine {
			return item, true, nil
		}
	}
}

// StreamCursor adapts a Stream to a run loop's arrival split: Peek reports
// the next arrival time (or that the stream is exhausted, or a source error),
// reading and validating one spec ahead; Pop materializes the run's record
// from the free-list pool via the Fill hook. Completed records return to the pool
// through the consuming run's completion path, so run state is bounded by the
// peak number of live records, not the stream length.
type StreamCursor[S, R any] struct {
	// Src is the stream of specs; Pool recycles the materialized records.
	Src  Stream[S]
	Pool *SlabPool[R]
	// Arrival extracts a spec's arrival time.
	Arrival func(*S) float64
	// Validate, when non-nil, checks each spec before it is admitted to the
	// run; prev is the previously yielded spec's arrival (meaningful when
	// n > 0), so substrates enforce the nondecreasing-order contract with
	// their own error surface.
	Validate func(n int, prev float64, s *S) error
	// Fill materializes a pooled record from the popped spec.
	Fill func(*R, *S)
	// Wrap, when non-nil, decorates errors the stream itself returns.
	Wrap func(error) error

	spec S
	arr  float64
	have bool
	done bool
	err  error
	last float64 // last yielded arrival, for Validate's nondecreasing check
	n    int     // specs yielded, for error positions
}

// Peek reports the next spec's arrival time, reading (and validating) one
// spec ahead of the run loop, in place.
func (c *StreamCursor[S, R]) Peek() (float64, bool, error) {
	if c.err != nil {
		return 0, false, c.err
	}
	if c.have {
		return c.arr, true, nil
	}
	if c.done {
		return 0, false, nil
	}
	// Read straight into c.spec: a local would escape through the Validate
	// and Arrival hooks and cost one heap copy of the spec per job.
	var ok bool
	var err error
	c.spec, ok, err = c.Src.Next()
	if err != nil {
		if c.Wrap != nil {
			err = c.Wrap(err)
		}
		c.err = err
		return 0, false, c.err
	}
	if !ok {
		c.done = true
		return 0, false, nil
	}
	if c.Validate != nil {
		if err := c.Validate(c.n, c.last, &c.spec); err != nil {
			c.err = err
			return 0, false, c.err
		}
	}
	c.n++
	c.arr = c.Arrival(&c.spec)
	c.last = c.arr
	c.have = true
	return c.arr, true, nil
}

// Pop materializes the peeked spec as a pooled record.
func (c *StreamCursor[S, R]) Pop() *R {
	x := c.Pool.Get()
	c.Fill(x, &c.spec)
	c.have = false
	return x
}
