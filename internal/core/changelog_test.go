package core_test

import (
	"bytes"
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

// densePolicy is what the change-log test drives: LAS_MQ or its adaptive
// wrapper, through the dense forms.
type densePolicy interface {
	sched.DenseAssigner
	sched.DenseHinter
	sched.DenseObserver
	obs.ProbeSetter
}

// logJob is a live job of the change-log test: its view, its slot, and what
// its view is derived from.
type logJob struct {
	view  *schedtest.FakeJob
	slot  int32
	size  float64
	width float64
	est   float64 // the stage-aware estimate over attained service
	rate  float64 // its share in the latest assignment
	moved bool    // it arrived or grew since the policies' previous call
}

// serve advances the job by rate·dt and derives its estimate and demands.
func (j *logJob) serve(dt float64) {
	v := j.view
	v.AttainedVal = math.Min(j.size, v.AttainedVal+j.rate*dt)
	v.EstimatedVal = v.AttainedVal * j.est
	v.ReadyVal = math.Min(j.width, math.Ceil(j.size-v.AttainedVal))
	v.RemainingVal = v.ReadyVal
}

// TestChangedSlotSweepMatchesFullSweep drives two identically configured
// policies in lockstep through random fluid-like rounds: one is handed the
// full log (every view changed), the other the declared log — the views
// of jobs that arrived since its previous call or were served in the latest
// assignment. Jobs arrive under random IDs, grow only while served, finish or
// leave at random, and their slots come from the substrate's allocator, so a
// freed slot goes to the next arrival, and some jobs arrive and leave unseen;
// views are laid out anew only in calls where a job arrived or left, as the
// contract allows. One call in four is an observation. After every call the
// two must agree bit for bit on shares and horizon, QueueOf and QueueSizes
// (the refit ladder, for the adaptive wrapper) and the JSONL probe stream,
// with OrderByDemand on and off and across the adaptive wrapper's refits.
func TestChangedSlotSweepMatchesFullSweep(t *testing.T) {
	for _, tc := range []struct {
		name                           string
		byDemand, stageAware, adaptive bool
	}{
		{"byDemand", true, true, false},
		{"bySeq", false, false, false},
		{"adaptive", true, true, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				var mqs [2]*core.LASMQ
				var ads [2]*core.Adaptive
				var pols [2]densePolicy
				for k := range pols {
					if tc.adaptive {
						cfg := core.DefaultAdaptiveConfig()
						cfg.Queues, cfg.InitialThreshold, cfg.InitialStep = 5, 1, 4
						cfg.WarmupJobs, cfg.RefitEvery = 8, 8
						a, err := core.NewAdaptive(cfg)
						if err != nil {
							t.Fatal(err)
						}
						ads[k], pols[k] = a, a
						continue
					}
					mqs[k] = newLASMQ(t, func(c *core.Config) {
						*c = core.Config{Queues: 5, FirstThreshold: 1, Step: 4, QueueWeightDecay: 3,
							StageAware: tc.stageAware, OrderByDemand: tc.byDemand}
					})
					pols[k] = mqs[k]
				}
				full, declared := pols[0], pols[1]
				var logs [2]bytes.Buffer
				sinks := [2]*obs.JSONL{obs.NewJSONL(&logs[0]), obs.NewJSONL(&logs[1])}
				full.SetProbe(sinks[0])
				declared.SetProbe(sinks[1])

				rng := rand.New(rand.NewSource(seed))
				var vs substrate.ViewSet // the slot allocator
				var live []*logJob
				var freed []int32 // the log's freed list
				var shares [2]sched.Shares
				usedIDs := map[int]bool{}
				gone := []int{-1}
				seq := 0
				reissued, unseen, narrow := 0, 0, 0
				arrive := func() *logJob {
					id := rng.Intn(1 << 20)
					for usedIDs[id] {
						id = rng.Intn(1 << 20)
					}
					usedIDs[id] = true
					seq++
					slot := vs.TakeSlot()
					if slices.Contains(freed, slot) {
						reissued++
					}
					j := &logJob{view: &schedtest.FakeJob{JobID: id, JobSeq: seq, JobPriority: 1},
						slot: slot, size: 0.5 + rng.ExpFloat64()*20, width: float64(1 + rng.Intn(4)),
						est: 1 + rng.Float64(), moved: true}
					j.serve(0)
					return j
				}
				leave := func(j *logJob) {
					vs.FreeSlot(j.slot)
					freed = append(freed, j.slot)
					gone = append(gone, j.view.JobID)
				}

				for round := 0; round < 400; round++ {
					now := float64(round)
					// Finished jobs leave, and now and then an unfinished one;
					// then arrivals take the freed slots, and now and then a job
					// arrives and leaves before either policy sees it.
					n := len(live)
					live = slices.DeleteFunc(live, func(j *logJob) bool {
						if j.view.ReadyVal > 0 && rng.Intn(30) != 0 {
							return false
						}
						leave(j)
						return true
					})
					moved := len(live) != n
					for k := rng.Intn(3); (k > 0 || len(live) == 0) && len(live) < 40; k-- {
						live = append(live, arrive())
						moved = true
					}
					if rng.Intn(6) == 0 {
						leave(arrive())
						unseen++
					}
					if moved && rng.Intn(2) == 0 {
						rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
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
					if 2*len(changed) < len(views) {
						narrow++
					}

					if rng.Intn(4) == 0 {
						full.ObserveDense(now, views, slots, nil, freed)
						declared.ObserveDense(now, views, slots, changed, freed)
					} else {
						capacity := 1 + rng.Float64()*6
						for k := range shares {
							shares[k].Reset(len(views)) // clears the previous round's grants alone
						}
						full.AssignDense(now, capacity, views, slots, nil, freed, &shares[0])
						declared.AssignDense(now, capacity, views, slots, changed, freed, &shares[1])
						for i, j := range live {
							x, y := shares[0].Col()[i], shares[1].Col()[i]
							if math.Float64bits(x) != math.Float64bits(y) {
								t.Fatalf("round %d: job %d gets %v from the full log, %v from the declared one",
									round, j.view.JobID, x, y)
							}
							j.rate = y
						}
						if !slices.Equal(shares[0].Served(), shares[1].Served()) {
							t.Fatalf("round %d: served %v from the full log, %v from the declared one",
								round, shares[0].Served(), shares[1].Served())
						}
						hFull := full.HorizonDense(now, views, slots, &shares[0])
						hDecl := declared.HorizonDense(now, views, slots, &shares[1])
						if hFull != hDecl {
							t.Fatalf("round %d: horizon %v from the full log, %v from the declared one", round, hFull, hDecl)
						}
					}
					freed = freed[:0]

					for k := range sinks {
						if err := sinks[k].Flush(); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(logs[0].Bytes(), logs[1].Bytes()) {
						t.Fatalf("round %d: probe streams differ (%d vs %d bytes)", round, logs[0].Len(), logs[1].Len())
					}
					if tc.adaptive {
						if !reflect.DeepEqual(ads[0].Thresholds(), ads[1].Thresholds()) {
							t.Fatalf("round %d: ladders differ: %v vs %v", round, ads[0].Thresholds(), ads[1].Thresholds())
						}
					} else {
						if got, want := mqs[1].QueueSizes(), mqs[0].QueueSizes(); !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d: QueueSizes %v from the declared log, %v from the full one", round, got, want)
						}
						ids := append([]int(nil), gone[max(0, len(gone)-5):]...)
						for _, j := range live {
							ids = append(ids, j.view.JobID)
						}
						for _, id := range ids {
							qd, okd := mqs[1].QueueOf(id)
							qf, okf := mqs[0].QueueOf(id)
							if qd != qf || okd != okf {
								t.Fatalf("round %d: QueueOf(%d) = %d,%v from the declared log, %d,%v from the full one",
									round, id, qd, okd, qf, okf)
							}
						}
					}

					// Served-only growth: the latest assignment's rates hold
					// until the next one.
					dt := rng.Float64() * 2
					for _, j := range live {
						if j.rate != 0 {
							j.serve(dt)
							j.moved = true
						}
					}
				}
				if reissued < 20 || unseen < 20 || narrow < 200 || logs[0].Len() < 20000 {
					t.Fatalf("the rounds exercised too little: %d slots reissued within a gap, %d unseen jobs, "+
						"%d narrow logs, %d bytes of events", reissued, unseen, narrow, logs[0].Len())
				}
				if tc.adaptive && ads[1].Refits() < 3 {
					t.Fatalf("%d refits, want at least 3", ads[1].Refits())
				}
			})
		}
	}
}
