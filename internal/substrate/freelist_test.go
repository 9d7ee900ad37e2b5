package substrate

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSlabPoolRecycles(t *testing.T) {
	var p SlabPool[[4]int]
	a := p.Get()
	b := p.Get()
	if a == b {
		t.Fatal("distinct Gets returned the same record")
	}
	(*a)[0] = 7
	p.Put(a)
	c := p.Get()
	if c != a {
		t.Fatal("Get did not recycle the returned record")
	}
	if (*c)[0] != 0 {
		t.Fatal("recycled record not zeroed")
	}
	s := p.Stats()
	if s.Live != 2 || s.Peak != 2 || s.Recycled != 1 {
		t.Fatalf("stats = %+v, want Live 2 Peak 2 Recycled 1", s)
	}
}

func TestSlabPoolStablePointersAcrossChunks(t *testing.T) {
	var p SlabPool[int]
	n := 3*slabChunk + 5
	ptrs := make([]*int, n)
	for i := range ptrs {
		ptrs[i] = p.Get()
		*ptrs[i] = i
	}
	for i, x := range ptrs {
		if *x != i {
			t.Fatalf("record %d clobbered after later carves: got %d", i, *x)
		}
	}
	s := p.Stats()
	if s.Live != n || s.Peak != n || s.Recycled != 0 {
		t.Fatalf("stats = %+v, want Live/Peak %d Recycled 0", s, n)
	}
}

func TestSlabPoolPeakBoundsLive(t *testing.T) {
	var p SlabPool[int]
	// Churn far more records than are ever live at once: peak stays at the
	// live bound and all but the first window recycle.
	const window, total = 16, 1000
	live := make([]*int, 0, window)
	for i := 0; i < total; i++ {
		if len(live) == window {
			p.Put(live[0])
			live = live[1:]
		}
		live = append(live, p.Get())
	}
	s := p.Stats()
	if s.Peak != window {
		t.Fatalf("peak = %d, want %d", s.Peak, window)
	}
	if s.Recycled != total-window {
		t.Fatalf("recycled = %d, want %d", s.Recycled, total-window)
	}
	if got := len(p.chunks); got != 1 {
		t.Fatalf("allocated %d chunks for a %d-record live set", got, window)
	}
}

// TestSlabPoolRewind pins the contract of a pool that outlives its runs:
// after Rewind every record is free again (the ones never Put included,
// scrubbed by Reset), no chunk is added while the next run stays within the
// records already carved, and that run's Stats are a fresh pool's — a record
// left over from the earlier run counts as a carve, only a record Put during
// the run counts as Recycled.
func TestSlabPoolRewind(t *testing.T) {
	type rec struct {
		val     int
		scratch []int
	}
	p := SlabPool[rec]{Reset: func(r *rec) { r.val = 0; r.scratch = r.scratch[:0] }}
	run := func() SlabStats {
		a, b, c := p.Get(), p.Get(), p.Get()
		for _, r := range []*rec{a, b, c} {
			if r.val != 0 || len(r.scratch) != 0 {
				t.Fatalf("record handed out dirty: %+v", *r)
			}
			r.val = 7
			r.scratch = append(r.scratch, 1, 2, 3)
		}
		p.Put(b)
		if d := p.Get(); d != b {
			t.Fatal("Get did not prefer the record Put during this run")
		}
		_, _ = a, c // never Put: the run ends holding them, as a killed copy's job does
		return p.Stats()
	}
	first := run()
	if want := (SlabStats{Live: 3, Peak: 3, Recycled: 1}); first != want {
		t.Fatalf("first run stats = %+v, want %+v", first, want)
	}
	p.Rewind()
	if got := p.Stats(); got != (SlabStats{}) {
		t.Fatalf("stats after Rewind = %+v, want zero", got)
	}
	if second := run(); second != first {
		t.Fatalf("second run stats = %+v, want a fresh pool's %+v", second, first)
	}
	if len(p.chunks) != 1 || p.next != 3 {
		t.Fatalf("second run carved anew: %d chunks, next %d; want 1 and 3", len(p.chunks), p.next)
	}
	p.Rewind()
	if r := p.Get(); cap(r.scratch) < 3 {
		t.Fatalf("rewound record lost the capacity Reset keeps: cap %d", cap(r.scratch))
	}
}

// TestArenasKeepWhatIsPut: Get makes an arena only when none is free and
// otherwise takes the one Put last, through collections; the list holds no
// more arenas than were out at once, and concurrent runs never share one.
func TestArenasKeepWhatIsPut(t *testing.T) {
	var made atomic.Int32
	a := Arenas[[8]int]{New: func() *[8]int { made.Add(1); return new([8]int) }}
	x, y := a.Get(), a.Get()
	if x == y || made.Load() != 2 {
		t.Fatalf("two Gets from an empty list: same arena %v, %d made; want distinct, 2", x == y, made.Load())
	}
	a.Put(x)
	a.Put(y)
	runtime.GC()
	runtime.GC()
	if got := a.Get(); got != y || made.Load() != 2 {
		t.Fatalf("Get after two collections made a new arena or not the one Put last (%d made)", made.Load())
	}
	a.Put(y)
	if len(a.free) != 2 {
		t.Fatalf("%d arenas free after two were out at once; want 2", len(a.free))
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r := a.Get()
				r[0]++ // the race detector catches two runs on one arena
				a.Put(r)
			}
		}()
	}
	wg.Wait()
	if len(a.free) > 4 || made.Load() > 4 {
		t.Fatalf("4 workers left %d arenas free, %d made; want at most 4 each", len(a.free), made.Load())
	}
}
