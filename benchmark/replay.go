package main

import (
	"math/rand"
	"slices"
	"time"

	"lasmq/internal/eventq"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// Layer replays: each calls one layer the way a run does, at the sizes the
// traced pass measured, so that "rounds × per-round cost + events × per-event
// cost" can be held against the simulator's self time. They are fixed-count
// loops of a few tens of milliseconds; their inputs come from a fixed seed,
// since they time the layer and not the workload.

const replaySeed = 20170605

// perCall runs f n times and returns the mean ns per call.
func perCall(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(n)
}

// clockPairNs is the cost of the time.Now/time.Since pair every span pays.
func clockPairNs() float64 {
	var sink time.Duration
	ns := perCall(500000, func() {
		t0 := time.Now()
		sink += time.Since(t0)
	})
	_ = sink
	return ns
}

// replayView is a job view with fixed answers.
type replayView struct {
	id     int
	demand float64
}

func (v *replayView) ID() int                    { return v.id }
func (v *replayView) Seq() int                   { return v.id }
func (v *replayView) Priority() int              { return 1 + v.id%5 }
func (v *replayView) Attained() float64          { return float64(v.id) }
func (v *replayView) Estimated() float64         { return float64(v.id) }
func (v *replayView) ReadyDemand() float64       { return v.demand }
func (v *replayView) RemainingDemand() float64   { return v.demand }
func (v *replayView) SizeHint() float64          { return 0 }
func (v *replayView) RemainingSizeHint() float64 { return 0 }

// viewsetRoundNs is one round's view collection: Begin, then Add and
// SetDemand per live view.
func viewsetRoundNs(views int) float64 {
	pool := make([]*replayView, views)
	for i := range pool {
		pool[i] = &replayView{id: i + 1, demand: float64(1 + i%4)}
	}
	var vs substrate.ViewSet
	return perCall(max(200, 200000/views), func() {
		vs.Begin(true, false)
		for _, v := range pool {
			vs.Add(v)
			vs.SetDemand(v.id, v.demand)
		}
	})
}

// quantizeNs is one sched.Quantizer round over views fractional shares that
// fill capacity.
func quantizeNs(views, capacity int) float64 {
	alloc := make(sched.Assignment, views)
	demand := make(map[int]float64, views)
	share := float64(capacity) / float64(views)
	for i := 1; i <= views; i++ {
		alloc[i] = share
		demand[i] = share + 1
	}
	var qz sched.Quantizer
	return perCall(max(200, 100000/views), func() { qz.QuantizeInto(alloc, demand, capacity) })
}

// slabpoolCycleNs is one job record's Get and Put against a pool that
// already holds recycled records, the steady state of a streamed run.
func slabpoolCycleNs() float64 {
	type record struct{ payload [16]float64 }
	var pool substrate.SlabPool[record]
	pool.Put(pool.Get())
	return perCall(1000000, func() { pool.Put(pool.Get()) })
}

// holdQueue is what the hold model needs of either event queue.
type holdQueue interface {
	Push(time float64, value int)
	Pop() (float64, int, bool)
}

// holdNs is the classic hold model: with pending events queued, pop the
// earliest and push one an exponential step later, so the queue length stays
// at pending.
func holdNs(q holdQueue, pending int) float64 {
	rng := rand.New(rand.NewSource(replaySeed))
	for i := 0; i < pending; i++ {
		q.Push(rng.ExpFloat64(), i)
	}
	return perCall(300000, func() {
		t, v, _ := q.Pop()
		q.Push(t+rng.ExpFloat64(), v)
	})
}

func heapHoldNs(pending int) float64   { return holdNs(&eventq.Queue[int]{}, pending) }
func ladderHoldNs(pending int) float64 { return holdNs(&eventq.Ladder[int]{}, pending) }

// The yardstick is a fixed piece of work shaped like what the simulators do —
// float keys generated and sorted, a map updated, a slice walked out of
// order — that the end-to-end mode runs between the policy runs of every
// sweep. The reference box changes speed by up to 30 % for seconds or minutes
// at a time (what shares its core is not ours to say); the yardstick slows
// with it, so a sweep's wall divided by the yardstick's says how fast the
// sweep ran on a box of fixed speed. It allocates nothing and no later
// change may edit it: it is the unit, not the thing measured.
const (
	yardstickSize = 4096
	// yardstickNominalS is about what the yardstick takes on the reference
	// box; a box that runs it in exactly this time has speed 1.
	yardstickNominalS = 1e-3
)

var yardstick struct {
	keys  [yardstickSize]float64
	order [yardstickSize]int
	table map[int]float64
	sink  float64
}

// yardstickS runs the yardstick once and returns how long it took.
func yardstickS() float64 {
	y := &yardstick
	if y.table == nil {
		y.table = make(map[int]float64, yardstickSize)
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	for rep := 0; rep < 8; rep++ {
		for i := range y.keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			y.keys[i] = float64(x%100000) / 7
			y.order[i] = int(x % yardstickSize)
		}
		slices.Sort(y.keys[:yardstickSize/4])
		for i, k := range y.order {
			y.table[k] += y.keys[i]
		}
		for _, k := range y.order {
			y.sink += y.keys[k]
		}
	}
	return time.Since(t0).Seconds()
}
