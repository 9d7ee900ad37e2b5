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
// which the map adapter drives without slots, so it sorts every round
// afresh. Jobs arrive now and then under a seq below some already queued,
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
			slotless, _, _ := sched.DenseForms(schedtest.MapOnly(sched.NewFIFO()))
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

			for round := 0; round < 600; round++ {
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
				slotless.AssignDense(now, capacity, views, nil, nil, nil, &shares[3])
				freed = freed[:0]
				names := [4]string{"the declared log", "the nil log", "the log without departures", "the slotless sort"}
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
			}
			if reissued < 20 || unseen < 20 || outOfOrder < 20 || zeroHead < 100 || cutInside < 100 {
				t.Fatalf("the rounds exercised too little: %d slots reissued within a gap, %d unseen jobs, "+
					"%d arrivals out of seq order, %d rounds with a zero-demand head, %d cut inside a job",
					reissued, unseen, outOfOrder, zeroHead, cutInside)
			}
		})
	}
}
