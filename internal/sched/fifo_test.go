package sched_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
	"lasmq/internal/substrate"
)

// fifoJob is a live job of the FIFO lockstep test: its view, its slot, and
// whether its view moved since the policies' previous call.
type fifoJob struct {
	view  *schedtest.FakeJob
	slot  int32
	moved bool
}

// TestFIFOQueueFollowsLog drives four FIFOs in lockstep through random
// slotted rounds: one handed the declared log — the views of the jobs that
// arrived since its previous call or whose ready demand moved — one the nil
// log (every view changed), one the declared log without its freed slots,
// which must find the departures by itself, and schedtest.MapOnly(FIFO),
// FIFO's map forms, which issue slots of their own by job ID and hand its
// queue the nil log. Jobs arrive now and then under a seq below some already queued,
// take their slots from the substrate's allocator, so a slot freed since the
// previous call goes to the next arrival, and some arrive and leave unseen;
// they leave at random. The oldest job often has no ready demand, and
// capacity is fractional, so it runs out inside a job. Views are laid out anew only in calls where a job
// arrived or left, as the contract allows. After every call the four answers
// must agree bit for bit, columns and served lists, and match the literal
// FIFO.
func TestFIFOQueueFollowsLog(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			declared, full, forgetful := sched.NewFIFO(), sched.NewFIFO(), sched.NewFIFO()
			mapForms, _, _ := sched.DenseForms(schedtest.MapOnly(sched.NewFIFO()))
			var vs substrate.ViewSet // the slot allocator
			var live []*fifoJob
			var freed []int32 // the log's freed list
			var shares [4]sched.Shares
			usedSeq := map[int]bool{}
			maxSeq := 0
			reissued, unseen, outOfOrder, zeroHead, cutInside := 0, 0, 0, 0, 0
			arrive := func() *fifoJob {
				seq := maxSeq + 1 + rng.Intn(3)
				if rng.Intn(5) == 0 && maxSeq > 10 {
					for seq = 1 + rng.Intn(maxSeq); usedSeq[seq]; seq = 1 + rng.Intn(maxSeq) {
					}
					outOfOrder++
				}
				usedSeq[seq] = true
				maxSeq = max(maxSeq, seq)
				slot := vs.TakeSlot()
				if slices.Contains(freed, slot) {
					reissued++
				}
				return &fifoJob{view: &schedtest.FakeJob{JobID: 1e6 + seq, JobSeq: seq, JobPriority: 1,
					ReadyVal: float64(rng.Intn(5))}, slot: slot, moved: true}
			}
			leave := func(j *fifoJob) {
				vs.FreeSlot(j.slot)
				freed = append(freed, j.slot)
			}

			round := 0
			// call lays the live jobs out as views, moves demands at random,
			// hands the call to the four FIFOs and checks their answers.
			call := func() {
				// Demands move at random, and the oldest job's is often zero.
				oldest := -1
				for i, j := range live {
					if oldest < 0 || j.view.JobSeq < live[oldest].view.JobSeq {
						oldest = i
					}
					if rng.Intn(6) == 0 {
						j.view.ReadyVal = float64(rng.Intn(5)) / 2
						j.moved = true
					}
				}
				if oldest >= 0 && rng.Intn(3) == 0 && live[oldest].view.ReadyVal != 0 {
					live[oldest].view.ReadyVal = 0
					live[oldest].moved = true
				}

				views, slots := make([]sched.JobView, len(live)), make([]int32, len(live))
				changed := []int32{}
				for i, j := range live {
					views[i], slots[i] = j.view, j.slot
					if j.moved {
						changed = append(changed, int32(i))
					}
					j.moved = false
				}
				if oldest >= 0 && live[oldest].view.ReadyVal == 0 {
					zeroHead++
				}

				// Capacity is fractional; one round in four it is ample, so
				// the walk reaches the tail.
				now, capacity := float64(round), rng.Float64()*9
				if rng.Intn(4) == 0 {
					capacity = 100 + rng.Float64()
				}
				for k := range shares {
					shares[k].Reset(len(views))
				}
				declared.AssignDense(now, capacity, views, slots, changed, freed, &shares[0])
				full.AssignDense(now, capacity, views, slots, nil, freed, &shares[1])
				forgetful.AssignDense(now, capacity, views, slots, changed, nil, &shares[2])
				mapForms.AssignDense(now, capacity, views, slots, nil, nil, &shares[3])
				freed = freed[:0]
				names := [4]string{"the declared log", "the nil log", "the log without departures", "the map forms"}
				for k := 1; k < len(shares); k++ {
					for i := range views {
						if x, y := shares[0].Col()[i], shares[k].Col()[i]; math.Float64bits(x) != math.Float64bits(y) {
							t.Fatalf("round %d: view %d gets %v from %s, %v from %s", round, i, x, names[0], y, names[k])
						}
					}
					if !slices.Equal(shares[0].Served(), shares[k].Served()) {
						t.Fatalf("round %d: served %v from %s, %v from %s",
							round, shares[0].Served(), names[0], shares[k].Served(), names[k])
					}
				}
				if err := schedtest.FIFOError(capacity, views, &shares[0]); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i, x := range shares[0].Col() {
					if x > 0 && x < views[i].ReadyDemand() {
						cutInside++
					}
				}
				round++
			}

			// Jobs leave at random and arrive at the tail; a call that saw
			// either may lay the views out anew.
			for round < 600 {
				n := len(live)
				live = slices.DeleteFunc(live, func(j *fifoJob) bool {
					if rng.Intn(8) != 0 {
						return false
					}
					leave(j)
					return true
				})
				moved := len(live) != n
				for k := rng.Intn(3); k > 0 && len(live) < 40; k-- {
					live = append(live, arrive())
					moved = true
				}
				if rng.Intn(5) == 0 {
					leave(arrive())
					unseen++
				}
				if moved && rng.Intn(2) == 0 {
					rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
				}
				call()
			}
			if reissued < 20 || unseen < 20 || outOfOrder < 20 || zeroHead < 100 || cutInside < 100 {
				t.Fatalf("the rounds exercised too little: %d slots reissued within a gap, %d unseen jobs, "+
					"%d arrivals out of seq order, %d rounds with a zero-demand head, %d cut inside a job",
					reissued, unseen, outOfOrder, zeroHead, cutInside)
			}
			walks, restamps := sched.FIFOFinds(declared)
			if restamps == 0 {
				t.Fatalf("the shuffled rounds never made the declared FIFO re-stamp its records")
			}

			// Oldest first and nothing arriving, the shape of a batch of equal
			// jobs, its views in seq order: they keep their order, and every
			// index a record holds less the departures since is exact, so no
			// call walks or re-stamps.
			for len(live) < 40 {
				live = append(live, arrive())
			}
			slices.SortFunc(live, func(a, b *fifoJob) int { return a.view.JobSeq - b.view.JobSeq })
			for _, j := range live {
				j.moved = true // laid out anew: every record is stamped
			}
			call()
			w0, r0 := sched.FIFOFinds(declared)
			for len(live) > 0 {
				k := min(1+rng.Intn(2), len(live))
				for _, j := range live[:k] {
					leave(j)
				}
				live = slices.Delete(live, 0, k)
				call()
			}
			if w, r := sched.FIFOFinds(declared); r != r0 || w != w0 {
				t.Fatalf("oldest-first departures: %d walks, %d re-stamps; want none", w-w0, r-r0)
			}

			// Arrivals placed before existing views, as the engine inserts
			// by position: a record's view moves up past them, and a walk
			// from the index it held less the departures since finds it.
			for k := 0; k < 200; k++ {
				live = slices.DeleteFunc(live, func(j *fifoJob) bool {
					if rng.Intn(8) != 0 {
						return false
					}
					leave(j)
					return true
				})
				for k := 1 + rng.Intn(2); k > 0 && len(live) < 40; k-- {
					live = slices.Insert(live, rng.Intn(len(live)+1), arrive())
				}
				call()
			}
			if w, _ := sched.FIFOFinds(declared); w == walks {
				t.Fatalf("arrivals before existing views: no call found a record's view by a walk")
			}
		})
	}
}
