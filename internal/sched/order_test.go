package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// compareEntries is the (key, seq) order as the library sort takes it.
func compareEntries(a, b viewEntry) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// orderShapes are the inputs the ordering tests and the crossover bench run
// on: n entries with unique seqs and keys drawn from n/3+1 values, so keys
// repeat and the seq tie-break decides.
var orderShapes = []struct {
	name string
	make func(r *rand.Rand, n int) []viewEntry
}{
	{"random", randomEntries},
	{"sorted", func(r *rand.Rand, n int) []viewEntry {
		es := randomEntries(r, n)
		slices.SortFunc(es, compareEntries)
		return es
	}},
	{"reversed", func(r *rand.Rand, n int) []viewEntry {
		es := randomEntries(r, n)
		slices.SortFunc(es, compareEntries)
		slices.Reverse(es)
		return es
	}},
	{"swap", func(r *rand.Rand, n int) []viewEntry {
		es := randomEntries(r, n)
		slices.SortFunc(es, compareEntries)
		if n > 1 {
			i, j := r.Intn(n), r.Intn(n)
			es[i], es[j] = es[j], es[i]
		}
		return es
	}},
}

func randomEntries(r *rand.Rand, n int) []viewEntry {
	es := make([]viewEntry, n)
	for i, seq := range r.Perm(n) {
		es[i] = viewEntry{key: float64(r.Intn(n/3 + 1)), seq: seq, idx: int32(i)}
	}
	return es
}

// TestSortEntriesMatchesLibrarySort holds sortEntries — both of its halves,
// at every size on either side of insertionMax — and the prefixes firstEntries
// selects to slices.SortFunc.
func TestSortEntriesMatchesLibrarySort(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, shape := range orderShapes {
		for n := 0; n <= 200; n++ {
			in := shape.make(r, n)
			want := slices.Clone(in)
			slices.SortFunc(want, compareEntries)
			for name, sort := range map[string]func([]viewEntry){
				"sortEntries": sortEntries, "insertion": insertionSortEntries, "library": librarySortEntries,
			} {
				got := slices.Clone(in)
				sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %s, n=%d: got %v, want %v", name, shape.name, n, got, want)
				}
			}
			for _, k := range []int{-1, 0, 1, n / 3, n / 2, n - 1, n, n + 5} {
				got := slices.Clone(in)
				firstEntries(got, k)
				head := min(max(k, 0), n)
				if !slices.Equal(got[:head], want[:head]) {
					t.Fatalf("firstEntries, %s, n=%d, k=%d: got %v, want %v", shape.name, n, k, got[:head], want[:head])
				}
				slices.SortFunc(got, compareEntries)
				if !slices.Equal(got, want) {
					t.Fatalf("firstEntries, %s, n=%d, k=%d: lost an entry", shape.name, n, k)
				}
			}
		}
	}
}

// orderView is a JobView with an attained service and a ready demand the
// test moves.
type orderView struct {
	JobView
	id, seq         int
	attained, ready float64
}

func (v *orderView) ID() int                  { return v.id }
func (v *orderView) Seq() int                 { return v.seq }
func (v *orderView) Priority() int            { return 1 }
func (v *orderView) Attained() float64        { return v.attained }
func (v *orderView) ReadyDemand() float64     { return v.ready }
func (v *orderView) RemainingDemand() float64 { return v.ready }

// TestLASCarriedOrderMatchesLibrarySort drives LAS.orderedEntries the way a
// substrate does — round after round over a changing job set, attained
// service moving, jobs leaving and their slots reissued to newcomers at once —
// and requires each round's entries to be exactly the views sorted by
// (attained, seq), whatever order the last round left behind. The first round
// of each size starts from one of orderShapes, so sorted, reversed and
// single-swap view orders are all met with nothing carried over; sizes run
// from 0 to 200, on both sides of insertionMax.
func TestLASCarriedOrderMatchesLibrarySort(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for n := 0; n <= 200; n++ {
		shape := orderShapes[n%len(orderShapes)]
		var las LAS
		var views []*orderView
		var slots []int32
		for i, e := range shape.make(r, n) {
			views = append(views, &orderView{id: i, seq: e.seq, attained: e.key})
			slots = append(slots, int32(i))
		}
		nextSeq, nextSlot := n, int32(n)
		for round := 0; round < 6; round++ {
			jobs := make([]JobView, len(views))
			for i, v := range views {
				jobs[i] = v
			}
			want := make([]viewEntry, len(views))
			for i, v := range views {
				want[i] = viewEntry{key: v.attained, seq: v.seq, idx: int32(i), slot: slots[i]}
			}
			slices.SortFunc(want, compareEntries)
			if got := las.orderedEntries(jobs, slots); !slices.Equal(got, want) {
				t.Fatalf("n=%d (%s) round %d: got %v, want %v", n, shape.name, round, got, want)
			}
			// The next round: some jobs are served, a few leave, and as many
			// arrive — on the freed slots first, in a different view order.
			var freed []int32
			keepViews, keepSlots := views[:0], slots[:0]
			for i, v := range views {
				switch r.Intn(8) {
				case 0:
					freed = append(freed, slots[i])
					continue
				case 1, 2:
					v.attained += float64(r.Intn(3))
				}
				keepViews, keepSlots = append(keepViews, v), append(keepSlots, slots[i])
			}
			views, slots = keepViews, keepSlots
			for len(views) < n {
				slot := nextSlot
				if len(freed) > 0 {
					slot, freed = freed[len(freed)-1], freed[:len(freed)-1]
				} else {
					nextSlot++
				}
				views = append(views, &orderView{id: nextSeq, seq: nextSeq, attained: float64(r.Intn(2))})
				slots = append(slots, slot)
				nextSeq++
			}
			r.Shuffle(len(views), func(i, j int) {
				views[i], views[j] = views[j], views[i]
				slots[i], slots[j] = slots[j], slots[i]
			})
		}
	}
}

// BenchmarkSortEntries is the measurement behind insertionMax: both halves of
// sortEntries on each shape at sizes around the cutoff (each iteration copies
// the input first, the same on both sides).
func BenchmarkSortEntries(b *testing.B) {
	r := rand.New(rand.NewSource(22))
	for _, shape := range orderShapes {
		for _, n := range []int{8, 16, 24, 32, 48, 64, 96, 128} {
			in := shape.make(r, n)
			buf := make([]viewEntry, n)
			for name, sort := range map[string]func([]viewEntry){"insertion": insertionSortEntries, "library": librarySortEntries} {
				b.Run(fmt.Sprintf("%s/%d/%s", shape.name, n, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(buf, in)
						sort(buf)
					}
				})
			}
		}
	}
}
