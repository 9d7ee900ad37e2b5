package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
	"lasmq/internal/substrate"
)

// queueLog records the queue events a scheduler emits, one line each.
type queueLog struct {
	obs.Nop
	lines []string
}

func (l *queueLog) QueueEnter(now float64, job, queue int) {
	l.lines = append(l.lines, fmt.Sprintf("%v enter %d q%d", now, job, queue))
}

func (l *queueLog) QueueDemote(now float64, job, from, to int, metric float64) {
	l.lines = append(l.lines, fmt.Sprintf("%v demote %d q%d->q%d at %v", now, job, from, to, metric))
}

func (l *queueLog) QueueExit(now float64, job, queue int) {
	l.lines = append(l.lines, fmt.Sprintf("%v exit %d q%d", now, job, queue))
}

// slottedJob is a live job of the slot-lifetime test: its view and the slot
// it holds.
type slottedJob struct {
	view *schedtest.FakeJob
	slot int32
}

// TestDenseSlotLifetime drives one LAS_MQ through its dense forms and a
// second, identically configured one through its map forms over the same
// random rounds, and holds them equal in everything observable: shares,
// horizons, QueueOf, QueueSizes and the queue-event sequence. Between rounds
// jobs arrive (under random, not increasing, IDs), depart, cross thresholds
// and change demand; slots come from the substrate's allocator, so a departed
// job's slot goes to the next arrival — before the policy has run a round
// without its previous owner whenever both happen in one gap — and some jobs
// arrive and leave without the policy ever seeing them. Views are shuffled
// every round, so a record's view index never repeats by accident.
func TestDenseSlotLifetime(t *testing.T) {
	for _, tc := range []struct{ stageAware, byDemand bool }{{true, true}, {false, true}, {true, false}, {false, false}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("stageAware=%v/byDemand=%v/seed%d", tc.stageAware, tc.byDemand, seed), func(t *testing.T) {
				cfg := core.Config{Queues: 5, FirstThreshold: 1, Step: 4, QueueWeightDecay: 3,
					StageAware: tc.stageAware, OrderByDemand: tc.byDemand}
				dense, mapped := newLASMQ(t, func(c *core.Config) { *c = cfg }), newLASMQ(t, func(c *core.Config) { *c = cfg })
				denseLog, mapLog := &queueLog{}, &queueLog{}
				dense.SetProbe(denseLog)
				mapped.SetProbe(mapLog)

				rng := rand.New(rand.NewSource(seed))
				var vs substrate.ViewSet // the slot allocator under test
				var live []slottedJob
				gone := []int{-1} // IDs no longer (or never) live, for QueueOf misses
				usedIDs := map[int]bool{}
				nextSeq := 0
				freed := map[int32]bool{} // slots freed since the last round
				var freedLog []int32      // the same, as the change log hands them over
				var shares sched.Shares   // reused, so each round clears the last one's grants
				reissued, unseen := 0, 0
				arrive := func() {
					id := rng.Intn(1 << 20)
					for usedIDs[id] {
						id = rng.Intn(1 << 20)
					}
					usedIDs[id] = true
					nextSeq++
					slot := vs.TakeSlot()
					if freed[slot] {
						reissued++
					}
					live = append(live, slottedJob{
						view: &schedtest.FakeJob{JobID: id, JobSeq: nextSeq, JobPriority: 1,
							ReadyVal: float64(rng.Intn(4)), RemainingVal: float64(1 + rng.Intn(6))},
						slot: slot,
					})
				}
				depart := func(k int) {
					vs.FreeSlot(live[k].slot)
					freed[live[k].slot] = true
					freedLog = append(freedLog, live[k].slot)
					gone = append(gone, live[k].view.JobID)
					live = slices.Delete(live, k, k+1)
				}

				for round := 0; round < 400; round++ {
					now := float64(round)
					// Departures first, so that this gap's arrivals reuse their
					// slots; then a job the policy never sees.
					clear(freed)
					freedLog = freedLog[:0]
					for n := rng.Intn(3); n > 0 && len(live) > 0; n-- {
						depart(rng.Intn(len(live)))
					}
					for n := rng.Intn(4); n > 0 && len(live) < 40; n-- {
						arrive()
					}
					if rng.Intn(5) == 0 {
						arrive()
						depart(len(live) - 1)
						unseen++
					}
					for _, j := range live {
						v := j.view
						if rng.Intn(3) == 0 {
							v.AttainedVal += rng.Float64() * 8
						}
						// A stage-aware estimate may shrink: demotion stays one-way.
						v.EstimatedVal = v.AttainedVal * (0.5 + rng.Float64())
						if rng.Intn(4) == 0 {
							v.ReadyVal = float64(rng.Intn(4))
							v.RemainingVal = float64(1 + rng.Intn(6))
						}
					}
					rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })

					views, slots := make([]sched.JobView, len(live)), make([]int32, len(live))
					rateCol, rates := make([]float64, len(live)), sched.Assignment{}
					for i, j := range live {
						r := rng.Float64() * 3
						switch rng.Intn(12) {
						case 0:
							r = 0
						case 1:
							r = math.Inf(1)
						}
						views[i], slots[i], rateCol[i] = j.view, j.slot, r
						rates[j.view.JobID] = r
					}

					var hDense, hMap float64
					if rng.Intn(3) == 0 {
						dense.ObserveDense(now, views, slots, nil, freedLog)
						mapped.Observe(now, views)
						hDense = dense.ObserveHorizonDense(now, views, slots, rateCol)
						hMap = mapped.ObserveHorizon(now, views, rates)
					} else {
						capacity := 1 + rng.Float64()*10
						shares.Reset(len(live))
						alloc := sched.Assignment{}
						dense.AssignDense(now, capacity, views, slots, nil, freedLog, &shares)
						mapped.AssignInto(now, capacity, views, alloc)
						for i, j := range live {
							if x := shares.Col()[i]; x != alloc[j.view.JobID] {
								t.Fatalf("round %d: job %d gets %v densely, %v by map", round, j.view.JobID, x, alloc[j.view.JobID])
							}
						}
						if served := len(shares.Served()); served != len(alloc) {
							t.Fatalf("round %d: %d jobs served densely, the map holds %d", round, served, len(alloc))
						}
						hDense = dense.HorizonDense(now, views, slots, &shares)
						hMap = mapped.Horizon(now, views, alloc)
					}
					if hDense != hMap {
						t.Fatalf("round %d: horizon %v densely, %v by map", round, hDense, hMap)
					}
					if got, want := dense.QueueSizes(), mapped.QueueSizes(); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: QueueSizes %v densely, %v by map", round, got, want)
					}
					ids := append([]int(nil), gone[max(0, len(gone)-5):]...)
					for _, j := range live {
						ids = append(ids, j.view.JobID)
					}
					for _, id := range ids {
						qd, okd := dense.QueueOf(id)
						qm, okm := mapped.QueueOf(id)
						if qd != qm || okd != okm {
							t.Fatalf("round %d: QueueOf(%d) = %d,%v densely, %d,%v by map", round, id, qd, okd, qm, okm)
						}
					}
					if !slices.Equal(denseLog.lines, mapLog.lines) {
						t.Fatalf("round %d: queue events differ\n dense: %q\n   map: %q", round,
							denseLog.lines[max(0, len(denseLog.lines)-8):], mapLog.lines[max(0, len(mapLog.lines)-8):])
					}
				}
				if reissued < 20 || unseen < 20 || len(denseLog.lines) < 400 {
					t.Fatalf("the rounds exercised too little: %d slots reissued within a gap, %d unseen jobs, %d events", reissued, unseen, len(denseLog.lines))
				}
			})
		}
	}
}

// steadyRound builds n live jobs spread over LAS_MQ's queues, with slots,
// for the round benchmarks and the allocation gate.
func steadyRound(n int) (views []sched.JobView, slots []int32) {
	for i := 0; i < n; i++ {
		views = append(views, &schedtest.FakeJob{JobID: i + 1, JobSeq: i + 1, JobPriority: 1,
			AttainedVal: math.Pow(10, float64(i%6)), EstimatedVal: math.Pow(10, float64(i%6)),
			ReadyVal: 2, RemainingVal: float64(1 + i%7)})
		slots = append(slots, int32(i))
	}
	return views, slots
}

// TestDenseRoundZeroAlloc: once the first round has sized the slot records,
// a steady dense LAS_MQ round over 1,000 views allocates nothing — one whose
// log counts every view changed (sweep, order check, sparse answer, horizon,
// observation), one whose log names only the views served last round and a
// departure whose slot an arrival takes, and one driven through
// substrate.Driver over a registration edited as the fluid simulator edits
// it; and a FIFO round driven over that registration, its queue kept from the
// same declared log.
func TestDenseRoundZeroAlloc(t *testing.T) {
	mq := newLASMQ(t, nil)
	views, slots := steadyRound(1000)
	var shares sched.Shares
	full := func() {
		shares.Reset(len(views))
		mq.AssignDense(1, 120, views, slots, nil, nil, &shares)
		mq.HorizonDense(1, views, slots, &shares)
		mq.ObserveDense(1, views, slots, nil, nil)
	}
	full()
	if avg := testing.AllocsPerRun(50, full); avg != 0 {
		t.Fatalf("steady dense round allocates %v allocs/op, want 0", avg)
	}

	// View 0's slot passes back and forth between two jobs.
	swap := [2]sched.JobView{views[0], &schedtest.FakeJob{JobID: -1, JobSeq: 1 << 20, JobPriority: 1, ReadyVal: 2, RemainingVal: 1}}
	changed, freed := make([]int32, 0, len(views)), []int32{slots[0]}
	turn := 0
	declared := func() {
		turn++
		views[0] = swap[turn%2]
		changed = append(changed[:0], 0)
		for _, i := range shares.Served() {
			if i != 0 {
				changed = append(changed, i)
			}
		}
		shares.Reset(len(views))
		mq.AssignDense(2, 120, views, slots, changed, freed, &shares)
		mq.HorizonDense(2, views, slots, &shares)
	}
	declared()
	if avg := testing.AllocsPerRun(50, declared); avg != 0 {
		t.Fatalf("dense round over a declared log allocates %v allocs/op, want 0", avg)
	}

	// The fluid simulator's shape, through a driver, for LAS_MQ and for FIFO,
	// whose queue follows the same log: one registration edited and never
	// rebuilt — each round the oldest job leaves (FreeSlot, Cut) and a new one
	// takes its slot behind the others — with the views served last round and
	// the new one marked, and the horizon read off the sparse answer.
	// ring[(head+k)%n] is the k-th view; a leaving job's record comes back as
	// the new one.
	for _, p := range []sched.Scheduler{newLASMQ(t, nil), sched.NewFIFO()} {
		d := substrate.NewDriver(p)
		var vs substrate.ViewSet
		ring, _ := steadyRound(1000)
		n := len(ring)
		slotOf := make([]int32, n)
		for k, j := range ring {
			slotOf[k] = vs.TakeSlot()
			vs.AddSlot(j, slotOf[k])
		}
		head, next := 0, n
		first, served, rounds, servedViews := []int32{0}, make([]int32, 0, n), 0, 0
		edited := func() {
			vs.FreeSlot(slotOf[head])
			vs.Cut(first)
			j := ring[head].(*schedtest.FakeJob)
			next++
			j.JobID, j.JobSeq, j.AttainedVal, j.EstimatedVal = next, next, 0, 0
			slotOf[head] = vs.TakeSlot()
			vs.AddSlot(j, slotOf[head])
			head = (head + 1) % n
			for _, i := range served {
				if i > 0 {
					vs.MarkChanged(int(i - 1))
				}
			}
			vs.MarkChanged(n - 1)
			d.Shares(float64(next), 120, &vs)
			list := vs.Served()
			d.Horizon(float64(next), &vs)
			served = append(served[:0], list...)
			rounds++
			servedViews += len(list)
		}
		for range 20 {
			edited()
		}
		if avg := testing.AllocsPerRun(50, edited); avg != 0 {
			t.Fatalf("%s: a driven round over an edited registration allocates %v allocs/op, want 0", p.Name(), avg)
		}
		if servedViews < rounds {
			t.Fatalf("%s: %d rounds served %d views", p.Name(), rounds, servedViews)
		}
	}
}

// BenchmarkLASMQRound is the profiling aid for the policy half of a round: a
// steady LAS_MQ assignment plus horizon at engine-like and Fig. 7b-like
// live-set sizes, through the map forms and through the dense ones. Whether a
// change made a sweep faster is benchmark/'s question, never this one's.
func BenchmarkLASMQRound(b *testing.B) {
	for _, n := range []int{30, 1000} {
		views, slots := steadyRound(n)
		b.Run(fmt.Sprintf("map/views=%d", n), func(b *testing.B) {
			mq, err := core.New(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			alloc := sched.Assignment{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mq.AssignInto(1, 120, views, alloc)
				mq.Horizon(1, views, alloc)
			}
		})
		b.Run(fmt.Sprintf("dense/views=%d", n), func(b *testing.B) {
			mq, err := core.New(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			var shares sched.Shares
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shares.Reset(n)
				mq.AssignDense(1, 120, views, slots, nil, nil, &shares)
				mq.HorizonDense(1, views, slots, &shares)
			}
		})
	}
}
