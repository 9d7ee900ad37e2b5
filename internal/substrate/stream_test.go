package substrate

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// failAfter yields ints 0..n-1 and then errors.
type failAfter struct {
	n, i int
}

func (s *failAfter) Next() (int, bool, error) {
	if s.i < s.n {
		s.i++
		return s.i - 1, true, nil
	}
	return 0, false, errors.New("tape ran out")
}

func TestSliceStream(t *testing.T) {
	src := SliceStream([]int{3, 1, 4})
	for _, want := range []int{3, 1, 4} {
		got, ok, err := src.Next()
		if err != nil || !ok || got != want {
			t.Fatalf("Next() = %v, %v, %v, want %v, true, nil", got, ok, err, want)
		}
	}
	for i := 0; i < 2; i++ { // exhaustion is sticky
		if got, ok, err := src.Next(); ok || err != nil || got != 0 {
			t.Fatalf("exhausted Next() = %v, %v, %v", got, ok, err)
		}
	}
}

// TestStridedPartitions pins the sharding contract: the strided shards of a
// stream partition it exactly — item i lands on shard i mod stride, every
// item on exactly one shard.
func TestStridedPartitions(t *testing.T) {
	items := make([]int, 17)
	for i := range items {
		items[i] = i * 10
	}
	const stride = 4
	seen := make(map[int]int)
	for offset := 0; offset < stride; offset++ {
		src := Strided(SliceStream(items), offset, stride)
		for k := 0; ; k++ {
			item, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if want := (offset + k*stride) * 10; item != want {
				t.Fatalf("shard %d item %d: got %d, want %d", offset, k, item, want)
			}
			seen[item]++
		}
	}
	if len(seen) != len(items) {
		t.Fatalf("shards cover %d of %d items", len(seen), len(items))
	}
	for item, n := range seen {
		if n != 1 {
			t.Fatalf("item %d yielded %d times", item, n)
		}
	}
}

func TestStridedPropagatesError(t *testing.T) {
	// Offset 2 of stride 4 over a stream that dies after 1 item: the shard
	// never owns an item, but must still surface the error.
	src := Strided[int](&failAfter{n: 1}, 2, 4)
	if _, ok, err := src.Next(); ok || err == nil {
		t.Fatalf("Next() = _, %v, %v, want error", ok, err)
	}
}

// rec is the test record type for cursor and pool tests.
type rec struct {
	val     float64
	scratch []int
}

func testCursor(src Stream[float64], pool *SlabPool[rec], validate func(int, float64, *float64) error) *StreamCursor[float64, rec] {
	return &StreamCursor[float64, rec]{
		Src:      src,
		Pool:     pool,
		Arrival:  func(s *float64) float64 { return *s },
		Validate: validate,
		Fill:     func(r *rec, s *float64) { r.val = *s },
		Wrap:     func(err error) error { return fmt.Errorf("test: source: %w", err) },
	}
}

func TestStreamCursorPeekPop(t *testing.T) {
	pool := &SlabPool[rec]{}
	c := testCursor(SliceStream([]float64{1, 2, 2, 5}), pool, nil)
	for _, want := range []float64{1, 2, 2, 5} {
		// Peek is idempotent until Pop.
		for i := 0; i < 2; i++ {
			a, ok, err := c.Peek()
			if err != nil || !ok || a != want {
				t.Fatalf("Peek() = %v, %v, %v, want %v, true, nil", a, ok, err, want)
			}
		}
		if r := c.Pop(); r.val != want {
			t.Fatalf("Pop().val = %v, want %v", r.val, want)
		}
	}
	if a, ok, err := c.Peek(); ok || err != nil {
		t.Fatalf("exhausted Peek() = %v, %v, %v", a, ok, err)
	}
	if got := pool.Stats().Live; got != 4 {
		t.Fatalf("pool live = %d, want 4 (nothing returned)", got)
	}
}

// TestStreamCursorValidateLatches pins the error protocol: a Validate
// rejection surfaces from Peek with the substrate's own error surface, and
// every later Peek repeats it instead of reading further.
func TestStreamCursorValidateLatches(t *testing.T) {
	reads := 0
	src := SliceStream([]float64{1, 5, 2, 9})
	counted := streamFunc[float64](func() (float64, bool, error) {
		reads++
		return src.Next()
	})
	c := testCursor(counted, &SlabPool[rec]{}, func(n int, prev float64, s *float64) error {
		if n > 0 && *s < prev {
			return fmt.Errorf("test: not sorted at item %d", n)
		}
		return nil
	})
	for i := 0; i < 2; i++ { // 1 then 5 pass validation
		if _, ok, err := c.Peek(); !ok || err != nil {
			t.Fatal(ok, err)
		}
		c.Pop()
	}
	_, ok, err := c.Peek()
	if ok || err == nil || !strings.Contains(err.Error(), "not sorted at item 2") {
		t.Fatalf("Peek() = _, %v, %v, want validation error", ok, err)
	}
	readsAtError := reads
	for i := 0; i < 3; i++ {
		if _, ok, err2 := c.Peek(); ok || err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("latched Peek() = _, %v, %v, want repeated %v", ok, err2, err)
		}
	}
	if reads != readsAtError {
		t.Fatalf("latched cursor read %d more items from the stream", reads-readsAtError)
	}
}

func TestStreamCursorWrapsSourceError(t *testing.T) {
	c := &StreamCursor[int, rec]{
		Src:     &failAfter{n: 0},
		Pool:    &SlabPool[rec]{},
		Arrival: func(s *int) float64 { return float64(*s) },
		Fill:    func(r *rec, s *int) { r.val = float64(*s) },
		Wrap:    func(err error) error { return fmt.Errorf("test: source: %w", err) },
	}
	_, ok, err := c.Peek()
	if ok || err == nil || err.Error() != "test: source: tape ran out" {
		t.Fatalf("Peek() = _, %v, %v, want wrapped source error", ok, err)
	}
}

// streamFunc adapts a closure to Stream.
type streamFunc[S any] func() (S, bool, error)

func (f streamFunc[S]) Next() (S, bool, error) { return f() }

// TestSlabPoolResetHook pins the Reset recycling contract: Reset runs at Put
// time, recycled records are handed back un-zeroed (Reset owns hygiene), and
// backing capacity a Reset retains survives the round trip.
func TestSlabPoolResetHook(t *testing.T) {
	resets := 0
	pool := &SlabPool[rec]{Reset: func(r *rec) {
		resets++
		r.val = 0
		r.scratch = r.scratch[:0] // keep capacity
	}}
	a := pool.Get()
	a.val = 7
	a.scratch = append(a.scratch, 1, 2, 3)
	pool.Put(a)
	if resets != 1 {
		t.Fatalf("Reset ran %d times at Put, want 1", resets)
	}
	b := pool.Get()
	if b != a {
		t.Fatal("pool did not recycle the returned record")
	}
	if b.val != 0 || len(b.scratch) != 0 {
		t.Fatalf("recycled record not reset: %+v", b)
	}
	if cap(b.scratch) < 3 {
		t.Fatalf("recycled record lost its backing capacity: cap %d", cap(b.scratch))
	}
	st := pool.Stats()
	if st.Live != 1 || st.Peak != 1 || st.Recycled != 1 {
		t.Fatalf("stats = %+v, want Live 1 Peak 1 Recycled 1", st)
	}
}

// TestStreamCursorPeekPopDoesNotAllocate pins the in-place read: with the
// Validate and Arrival hooks attached — the calls a local spec would escape
// through — one Peek+Pop+Put costs no allocation once the pool's first chunk
// exists.
func TestStreamCursorPeekPopDoesNotAllocate(t *testing.T) {
	const n = 2000
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{ID: i, Arrival: float64(i), Size: 1, Width: 1}
	}
	type job struct{ spec JobSpec }
	pool := &SlabPool[job]{}
	c := &StreamCursor[JobSpec, job]{
		Src:     SliceStream(specs),
		Pool:    pool,
		Arrival: func(s *JobSpec) float64 { return s.Arrival },
		Validate: func(n int, prev float64, s *JobSpec) error {
			if n > 0 && s.Arrival < prev {
				return fmt.Errorf("unsorted at %d", s.ID)
			}
			return nil
		},
		Fill: func(j *job, s *JobSpec) { j.spec = *s },
	}
	step := func() {
		if _, ok, err := c.Peek(); !ok || err != nil {
			t.Fatalf("Peek() = %v, %v before the stream ended", ok, err)
		}
		pool.Put(c.Pop())
	}
	step() // carves the pool's first chunk
	if allocs := testing.AllocsPerRun(n/2, step); allocs != 0 {
		t.Fatalf("Peek+Pop: %v allocs per spec, want 0", allocs)
	}
}

// tape yields 0, 10, 20, ... for n items; with fail >= 0 the item at that
// index fails, in Next and in Skip alike, every time it is reached. It
// counts the items Next built.
type tape struct {
	n, fail, i int
	built      int
}

var errTape = errors.New("tape torn")

func (s *tape) Next() (int, bool, error) {
	ok, err := s.Skip()
	if !ok || err != nil {
		return 0, ok, err
	}
	s.built++
	return (s.i - 1) * 10, true, nil
}

func (s *tape) Skip() (bool, error) {
	if s.i == s.fail {
		return false, errTape
	}
	if s.i >= s.n {
		return false, nil
	}
	s.i++
	return true, nil
}

// hidden wraps a stream so that only its Next shows.
type hidden struct{ Stream[int] }

// TestStridedSkipMatchesNext: Strided over a stream with Skip yields, call
// for call, what it yields over the same stream with Skip hidden — items, the
// end, and an error raised while passing over another shard's item, at the
// same call — and builds only the items it yields. SliceStream's Skip is
// held to the same.
func TestStridedSkipMatchesNext(t *testing.T) {
	same := func(t *testing.T, name string, got, want Stream[int], calls int) (yielded int) {
		t.Helper()
		for call := 0; call < calls; call++ {
			wv, wok, werr := want.Next()
			gv, gok, gerr := got.Next()
			if gv != wv || gok != wok || gerr != werr {
				t.Fatalf("%s call %d: (%v, %v, %v), want (%v, %v, %v)", name, call, gv, gok, gerr, wv, wok, werr)
			}
			if gok {
				yielded++
			}
		}
		return yielded
	}
	for _, n := range []int{0, 1, 3, 7, 17} {
		items := make([]int, n)
		for i := range items {
			items[i] = i * 10
		}
		for _, stride := range []int{1, 2, 3, 5, 8, 20} {
			for offset := 0; offset < stride; offset++ {
				name := fmt.Sprintf("n %d stride %d offset %d", n, stride, offset)
				same(t, name+" slice", Strided(SliceStream(items), offset, stride),
					Strided[int](hidden{SliceStream(items)}, offset, stride), n+3)
				for _, fail := range []int{-1, 0, 1, n / 2, n - 1, n} {
					name := fmt.Sprintf("%s fail %d", name, fail)
					skipping := &tape{n: n, fail: fail}
					yielded := same(t, name, Strided[int](skipping, offset, stride),
						Strided[int](hidden{&tape{n: n, fail: fail}}, offset, stride), n+3)
					if skipping.built != yielded {
						t.Fatalf("%s: built %d items for %d yielded", name, skipping.built, yielded)
					}
				}
			}
		}
	}
}
