package sched_test

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lasmq/internal/sched"
)

// quantizeReference is QuantizeInto as it stood before the dense core
// (commit 4f2d9c3), kept as the oracle the map front door and QuantizeRows
// are compared with. It does not terminate on a negative capacity or a
// non-finite share — the defect the core fixed — so tests hand it finite
// shares and capacity >= 0 only.
func quantizeReference(alloc sched.Assignment, demand map[int]float64, capacity int) map[int]int {
	type qshare struct {
		id    int
		whole int
		frac  float64
	}
	var shares []qshare
	for id := range alloc {
		shares = append(shares, qshare{id: id})
	}
	slices.SortFunc(shares, func(a, b qshare) int { return a.id - b.id })
	var allocTotal float64
	total := 0
	k := 0
	for _, s := range shares {
		x := alloc[s.id]
		if x <= 0 {
			continue
		}
		allocTotal += x
		if d, ok := demand[s.id]; ok && x > d {
			x = d
		}
		whole := int(math.Floor(x + 1e-9))
		shares[k] = qshare{id: s.id, whole: whole, frac: x - float64(whole)}
		total += whole
		k++
	}
	shares = shares[:k]

	budget := int(math.Round(allocTotal))
	if budget > capacity {
		budget = capacity
	}
	if total > budget {
		var trim []int
		for i := range shares {
			trim = append(trim, i)
		}
		slices.SortFunc(trim, func(a, b int) int {
			if shares[a].whole != shares[b].whole {
				return shares[b].whole - shares[a].whole
			}
			return shares[a].id - shares[b].id
		})
		for i := 0; total > budget; i = (i + 1) % len(trim) {
			if shares[trim[i]].whole > 0 {
				shares[trim[i]].whole--
				total--
			}
		}
	}
	remaining := budget - total
	slices.SortFunc(shares, func(a, b qshare) int {
		if a.frac != b.frac {
			if a.frac > b.frac {
				return -1
			}
			return 1
		}
		return a.id - b.id
	})
	out := make(map[int]int, len(shares))
	for _, s := range shares {
		n := s.whole
		if remaining > 0 && s.frac > 1e-9 {
			limit := math.Inf(1)
			if d, ok := demand[s.id]; ok {
				limit = d
			}
			if float64(n+1) <= limit+1e-9 {
				n++
				remaining--
			}
		}
		if n > 0 {
			out[s.id] = n
		}
	}
	return out
}

// quantRows lays alloc and demand out as the dense core's input: one row per
// share in ascending ID, an absent demand as +Inf.
func quantRows(alloc sched.Assignment, demand map[int]float64) []sched.QuantRow {
	rows := make([]sched.QuantRow, 0, len(alloc))
	for id, x := range alloc {
		d, ok := demand[id]
		if !ok {
			d = math.Inf(1)
		}
		rows = append(rows, sched.QuantRow{ID: id, Share: x, Demand: d, Target: -7})
	}
	slices.SortFunc(rows, func(a, b sched.QuantRow) int { return a.ID - b.ID })
	return rows
}

// checkQuantize runs the rows core and the map front door on one input,
// requires them to agree with each other and — when withReference — with the
// pre-change algorithm, and checks the quantizer's invariants: demands
// (which must be >= 0) respected, and no more containers handed out than
// capacity or the rounded share total.
func checkQuantize(t *testing.T, alloc sched.Assignment, demand map[int]float64, capacity int, withReference bool) {
	t.Helper()
	rows := quantRows(alloc, demand)
	var qz sched.Quantizer
	qz.QuantizeRows(rows, capacity)

	var shareTotal float64
	sum := 0
	dense := make(map[int]int, len(rows))
	for _, r := range rows {
		if r.Share > 0 && !math.IsInf(r.Share, 1) {
			shareTotal += r.Share // ascending ID, as the core sums it
		}
		if r.Target < 0 || float64(r.Target) > r.Demand+1e-9 {
			t.Errorf("job %d: target %d outside [0, demand %v]", r.ID, r.Target, r.Demand)
		}
		if r.Target > 0 {
			dense[r.ID] = r.Target
		}
		sum += r.Target
	}
	if limit := math.Min(float64(capacity), math.Round(shareTotal)); float64(sum) > limit {
		t.Errorf("handed out %d containers, limit min(capacity %d, round(%v))", sum, capacity, shareTotal)
	}
	if front := new(sched.Quantizer).QuantizeInto(alloc, demand, capacity); !maps.Equal(front, dense) {
		t.Errorf("map front door %v, rows core %v", front, dense)
	}
	if withReference {
		if ref := quantizeReference(alloc, demand, capacity); !maps.Equal(ref, dense) {
			t.Errorf("reference %v, rows core %v (alloc %v demand %v capacity %d)", ref, dense, alloc, demand, capacity)
		}
	}
}

func TestQuantizeRowsMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		alloc    sched.Assignment
		demand   map[int]float64
		capacity int
		want     map[int]int
	}{
		{"remainders", sched.Assignment{1: 33.4, 2: 33.3, 3: 33.3}, map[int]float64{1: 100, 2: 100, 3: 100}, 100,
			map[int]int{1: 34, 2: 33, 3: 33}},
		{"zero and negative shares", sched.Assignment{1: 0, 2: 5, 3: -4}, map[int]float64{1: 10, 2: 10, 3: 10}, 100,
			map[int]int{2: 5}},
		{"absent demand is uncapped", sched.Assignment{4: 2.5, 9: 2.5}, map[int]float64{9: 2}, 10,
			map[int]int{4: 3, 9: 2}},
		{"nil demand", sched.Assignment{4: 1.5, 9: 1.5}, nil, 10, map[int]int{4: 2, 9: 1}},
		{"equal remainders break by ID", sched.Assignment{30: 0.5, 10: 0.5, 20: 0.5, 40: 0.5}, nil, 10,
			map[int]int{10: 1, 20: 1}},
		{"share above demand", sched.Assignment{1: 10.6, 2: 3.4}, map[int]float64{1: 10, 2: 8}, 100,
			map[int]int{1: 10, 2: 4}},
		{"capacity below the share total", sched.Assignment{1: 60.7, 2: 60.7}, map[int]float64{1: 100, 2: 100}, 100,
			map[int]int{1: 50, 2: 50}},
		{"over-allocation trims the largest holders in rotation", sched.Assignment{1: 9, 2: 4, 3: 4}, nil, 12,
			map[int]int{1: 7, 2: 2, 3: 3}},
		{"trim skips rows already at zero", sched.Assignment{1: 300, 2: 5}, nil, 100, map[int]int{1: 100}},
		{"capacity 0", sched.Assignment{1: 2.5, 2: 0.5}, nil, 0, map[int]int{}},
		{"empty", sched.Assignment{}, nil, 10, map[int]int{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkQuantize(t, tc.alloc, tc.demand, tc.capacity, true)
			if got := new(sched.Quantizer).QuantizeInto(tc.alloc, tc.demand, tc.capacity); !maps.Equal(got, tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// TestQuantizeTerminatesOnHostileInput covers the inputs earlier quantizers
// never returned from, or returned nonsense for: a negative capacity (the
// trim loop found nothing to decrement), non-finite shares from a buggy
// policy (their integer conversion is negative on amd64), a finite share at
// or beyond 2⁶³ (the same conversion: the row's target came back as
// -9223372036854775807), and a share far above capacity (the trim took one
// container per step: 53 s for 4e9).
func TestQuantizeTerminatesOnHostileInput(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name     string
		alloc    sched.Assignment
		capacity int
		want     map[int]int
	}{
		{"negative capacity", sched.Assignment{1: 0.5}, -1, map[int]int{}},
		{"negative capacity, whole shares", sched.Assignment{1: 3, 2: 2}, -5, map[int]int{}},
		{"+Inf share", sched.Assignment{1: inf, 2: 2.5, 3: 1.5}, 10, map[int]int{2: 3, 3: 1}},
		{"only a +Inf share", sched.Assignment{1: inf}, 10, map[int]int{}},
		{"NaN beside a positive share", sched.Assignment{1: nan, 2: 3}, 10, map[int]int{2: 3}},
		{"-Inf share", sched.Assignment{1: math.Inf(-1), 2: 3}, 10, map[int]int{2: 3}},
		{"share total overflows to +Inf", sched.Assignment{1: 1e308, 2: 1e308}, 10, nil},
		{"share beyond 2^63", sched.Assignment{1: 1e19, 2: 3}, 10, map[int]int{1: 10}},
		{"two shares beyond 2^63", sched.Assignment{1: 1e19, 2: 3, 3: 2e19}, 11, map[int]int{1: 5, 3: 6}},
		{"share far above capacity", sched.Assignment{1: 4e9, 2: 3}, 10, map[int]int{1: 10}},
		{"shares far above capacity", sched.Assignment{1: 4e9, 2: 3, 3: 4e9 + 1, 4: 4e9}, 10, map[int]int{1: 3, 3: 4, 4: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan map[int]int, 1)
			go func() { done <- new(sched.Quantizer).QuantizeInto(tc.alloc, nil, tc.capacity) }()
			select {
			case got := <-done:
				if tc.want != nil && !maps.Equal(got, tc.want) {
					t.Errorf("got %v, want %v", got, tc.want)
				}
			case <-time.After(time.Second):
				t.Fatal("Quantize did not return within a second")
			}
		})
	}
}

// quantFuzzInput derives one quantizer input from fuzz arguments. mode bits:
// 1 shares on a quarter grid (equal remainders, so the ID tie-break decides),
// 2 shares scaled past capacity (the over-allocation trim path), 4 a third of
// the demands absent, 8 a quarter of the shares zero or negative, 16 an
// eighth of the shares +Inf, -Inf or NaN, 32 a quarter of the shares
// ten to ten thousand times larger (far above capacity: the trim's
// closed-form rotations, where the reference still steps one container at a
// time). IDs are distinct, non-contiguous and in no order.
func quantFuzzInput(seed int64, n uint8, capacity int16, mode uint8) (sched.Assignment, map[int]float64, int) {
	rng := rand.New(rand.NewSource(seed))
	alloc := make(sched.Assignment, n)
	demand := make(map[int]float64, n)
	containers := int(capacity)
	if containers < 0 {
		containers = -containers
	}
	for _, slot := range rng.Perm(int(n)) {
		id := 3*slot + 1
		x := rng.Float64() * 2 * float64(containers+1) / float64(int(n)+1)
		if mode&1 != 0 {
			x = math.Round(x*4) / 4
		}
		if mode&2 != 0 {
			x *= 3
		}
		if mode&32 != 0 && rng.Intn(4) == 0 {
			x *= math.Pow10(1 + rng.Intn(4))
		}
		if mode&8 != 0 && rng.Intn(4) == 0 {
			x = -x * float64(rng.Intn(2))
		}
		if mode&16 != 0 && rng.Intn(8) == 0 {
			x = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
		alloc[id] = x
		if mode&4 == 0 || rng.Intn(3) != 0 {
			demand[id] = float64(rng.Intn(2*(containers/(int(n)+1)+2))) + float64(rng.Intn(2))*0.5
		}
	}
	return alloc, demand, containers
}

// FuzzQuantizeRows asserts map front door ≡ pre-change reference ≡ rows core
// and the invariants on generated inputs; the seed corpus (every mode bit, the
// sizes of the micro-benches, capacity 0) runs under plain `go test`. Inputs
// with non-finite shares skip the reference, which does not survive them.
func FuzzQuantizeRows(f *testing.F) {
	for mode := uint8(0); mode < 32; mode++ {
		f.Add(int64(mode)+1, uint8(26), int16(20), mode)
		f.Add(int64(mode)+100, uint8(200), int16(120), mode)
	}
	f.Add(int64(7), uint8(12), int16(0), uint8(0))
	f.Add(int64(8), uint8(0), int16(50), uint8(0))
	f.Add(int64(9), uint8(1), int16(1), uint8(3))
	// Added after the seeds above, which keep their numbers: every combination
	// with the far-above-capacity bit.
	for mode := uint8(32); mode < 64; mode++ {
		f.Add(int64(mode)+1, uint8(26), int16(20), mode)
		f.Add(int64(mode)+100, uint8(200), int16(120), mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, capacity int16, mode uint8) {
		alloc, demand, containers := quantFuzzInput(seed, n, capacity, mode)
		checkQuantize(t, alloc, demand, containers, mode&16 == 0)
	})
}

// TestQuantizeRowsZeroAlloc pins the dense core's steady state: once its
// scratch has grown, a round allocates nothing — on the remainder path and on
// the over-allocation trim path alike.
func TestQuantizeRowsZeroAlloc(t *testing.T) {
	for _, mode := range []uint8{0, 2} {
		alloc, demand, capacity := quantFuzzInput(3, 120, 80, mode)
		rows := quantRows(alloc, demand)
		var qz sched.Quantizer
		qz.QuantizeRows(rows, capacity)
		if avg := testing.AllocsPerRun(50, func() { qz.QuantizeRows(rows, capacity) }); avg != 0 {
			t.Errorf("mode %d: QuantizeRows allocates %v objects per round after warm-up, want 0", mode, avg)
		}
	}
}

// BenchmarkQuantize times one quantization round per layer entry: the dense
// rows core the task engine calls, and the map front door the live resource
// manager calls (which sorts what map iteration shuffled, then runs the same
// core). Sizes are jobs × containers: 26x20 is a round of the engine scale
// tiers' sub-clusters, 200x120 the BenchmarkScheduleRound cluster. Shares
// are a priority-weighted fair split, so fractions are unequal and the
// remainder pass runs.
func BenchmarkQuantize(b *testing.B) {
	for _, size := range []struct{ jobs, capacity int }{{26, 20}, {200, 120}} {
		alloc := make(sched.Assignment, size.jobs)
		demand := make(map[int]float64, size.jobs)
		weights := 0
		for id := 1; id <= size.jobs; id++ {
			weights += 1 + id%5
		}
		for id := 1; id <= size.jobs; id++ {
			alloc[id] = float64(size.capacity) * float64(1+id%5) / float64(weights)
			demand[id] = float64(1 + id%4)
		}
		name := fmt.Sprintf("%dx%d", size.jobs, size.capacity)
		b.Run("rows/"+name, func(b *testing.B) {
			rows := quantRows(alloc, demand)
			var qz sched.Quantizer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qz.QuantizeRows(rows, size.capacity)
			}
		})
		b.Run("map/"+name, func(b *testing.B) {
			var qz sched.Quantizer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qz.QuantizeInto(alloc, demand, size.capacity)
			}
		})
	}
}
