package sched_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
	"lasmq/internal/substrate"
)

// slotSpy is a stateless dense policy that records the slot column of every
// call.
type slotSpy struct{ calls [][]int32 }

func (s *slotSpy) AssignDense(_, _ float64, _ []sched.JobView, slots, _, _ []int32, _ *sched.Shares) {
	s.calls = append(s.calls, append([]int32(nil), slots...))
}

// observingSpy is a stateful slotSpy (a DenseObserver).
type observingSpy struct{ slotSpy }

func (s *observingSpy) ObserveDense(float64, []sched.JobView, []int32, []int32, []int32) {}

// slotRounds is a sequence of job sets: job 2 leaves and returns in
// consecutive calls as a new job under its old ID; job 5 arrives in the call
// job 2 leaves again, so the freed slot is reissued at once; job 1 leaves
// for good.
var slotRounds = [][]int{{1, 2, 3, 4}, {1, 3, 4}, {1, 2, 3, 4}, {1, 3, 4, 5}, {3, 4, 5}, {3, 4, 5, 6, 7}}

// TestMapFormsIssueSlots: MapForms issues every policy, stateless or not, a
// slot per view by job ID, and the slots keep the dense contract — unique
// within a call, kept by a job across consecutive calls that name it, below
// the peak number of jobs named at once.
func TestMapFormsIssueSlots(t *testing.T) {
	stateless, stateful := &slotSpy{}, &observingSpy{}
	for _, p := range []struct {
		name string
		spy  sched.DenseAssigner
		log  *slotSpy
	}{{"stateless", stateless, stateless}, {"stateful", stateful, &stateful.slotSpy}} {
		t.Run(p.name, func(t *testing.T) { checkIssuedSlots(t, p.spy, p.log) })
	}
}

// checkIssuedSlots drives spy's map forms over slotRounds and checks the
// slot columns log records.
func checkIssuedSlots(t *testing.T, spy sched.DenseAssigner, log *slotSpy) {
	var m sched.MapForms
	prev := map[int]int32{}
	peak := 0
	for r, ids := range slotRounds {
		jobs := make([]sched.JobView, len(ids))
		for i, id := range ids {
			jobs[i] = &schedtest.FakeJob{JobID: id, JobSeq: id}
		}
		m.AssignInto(spy, 0, 10, jobs, sched.Assignment{})
		peak = max(peak, len(ids))
		slots := log.calls[r]
		if len(slots) != len(ids) {
			t.Fatalf("call %d: %d slots for %d views: %v", r, len(slots), len(ids), slots)
		}
		seen := map[int32]bool{}
		cur := map[int]int32{}
		for i, id := range ids {
			slot := slots[i]
			if seen[slot] || slot < 0 || int(slot) >= peak {
				t.Fatalf("call %d: slot %d of job %d is repeated or outside [0, %d): %v", r, slot, id, peak, slots)
			}
			seen[slot] = true
			if old, ok := prev[id]; ok && old != slot {
				t.Errorf("call %d: job %d moved from slot %d to %d", r, id, old, slot)
			}
			cur[id] = slot
		}
		prev = cur
	}
}

// TestMapFormsMatchSubstrateSlots drives each policy that keeps state by slot
// — the observers, and the ordering policies LAS and SJF — twice over
// slotRounds — jobs attaining service as they are served — once through its
// map forms (MapForms issuing slots by job ID) and once densely with slots a
// substrate.ViewSet issues as jobs come and go: the shares, horizons and
// probe streams must agree bit for bit.
func TestMapFormsMatchSubstrateSlots(t *testing.T) {
	mq := func() *core.LASMQ {
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 2
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	policies := map[string]func() sched.Scheduler{
		"LAS":  func() sched.Scheduler { return sched.NewLAS() },
		"SJF":  func() sched.Scheduler { return sched.NewSJF() },
		"SRPT": func() sched.Scheduler { return sched.NewSRPT() },
		"Adaptive": func() sched.Scheduler {
			cfg := core.DefaultAdaptiveConfig()
			cfg.InitialThreshold, cfg.WarmupJobs, cfg.RefitEvery = 2, 1, 1
			a, err := core.NewAdaptive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"Blend": func() sched.Scheduler {
			b, err := sched.NewBlend(mq(), sched.NewSRPT(), 0.4)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			mapped, mapLog := runSlotRounds(t, mk(), false)
			dense, denseLog := runSlotRounds(t, mk(), true)
			if !reflect.DeepEqual(mapped, dense) {
				t.Errorf("map forms and dense forms disagree:\n map:   %v\n dense: %v", mapped, dense)
			}
			if !bytes.Equal(mapLog, denseLog) {
				t.Errorf("probe streams differ:\n map:\n%s dense:\n%s", mapLog, denseLog)
			}
		})
	}
}

// runSlotRounds plays slotRounds against p and returns, per call, the shares
// by job ID and the horizon, with the JSONL probe stream. Each job's
// attained service grows by twice its share between calls; a returning job
// starts afresh under a new sequence number.
func runSlotRounds(t *testing.T, p sched.Scheduler, dense bool) ([]string, []byte) {
	var log bytes.Buffer
	sink := obs.NewJSONL(&log)
	if ps, ok := p.(obs.ProbeSetter); ok {
		ps.SetProbe(sink)
	}
	assigner, hinter, observer := sched.DenseForms(p)
	var vs substrate.ViewSet
	live := map[int]*schedtest.FakeJob{}
	slotOf := map[int]int32{}
	seq := 0
	var out []string
	for r, ids := range slotRounds {
		now := float64(r)
		named := map[int]bool{}
		for _, id := range ids {
			named[id] = true
		}
		var freed []int32 // the change log's freed list
		for id := range live {
			if !named[id] {
				delete(live, id)
				vs.FreeSlot(slotOf[id])
				freed = append(freed, slotOf[id])
			}
		}
		jobs := make([]sched.JobView, len(ids))
		slots := make([]int32, len(ids))
		for i, id := range ids {
			j, ok := live[id]
			if !ok {
				seq++
				j = &schedtest.FakeJob{JobID: id, JobSeq: seq, JobPriority: 1, ReadyVal: 2, RemainingVal: 2,
					SizeHintVal: float64(100 - 10*id), RemSizeVal: float64(10 * id)}
				live[id] = j
				slotOf[id] = vs.TakeSlot()
			}
			jobs[i], slots[i] = j, slotOf[id]
		}
		shares := make(sched.Assignment)
		var horizon float64
		if dense {
			if observer != nil {
				observer.ObserveDense(now, jobs, slots, nil, freed)
				freed = nil
			}
			var ans sched.Shares
			ans.Reset(len(jobs))
			assigner.AssignDense(now, 3, jobs, slots, nil, freed, &ans)
			for _, i := range ans.Served() {
				shares[jobs[i].ID()] = ans.Col()[i]
			}
			if hinter != nil {
				horizon = hinter.HorizonDense(now, jobs, slots, &ans)
			}
		} else {
			if o, ok := p.(sched.Observer); ok {
				o.Observe(now, jobs)
			}
			p.(sched.BufferedAssigner).AssignInto(now, 3, jobs, shares)
			if h, ok := p.(sched.Hinter); ok {
				horizon = h.Horizon(now, jobs, shares)
			}
		}
		out = append(out, fmt.Sprintf("%v %v", shares, horizon))
		for _, j := range jobs {
			f := j.(*schedtest.FakeJob)
			f.AttainedVal += 2 * shares[f.JobID]
			f.EstimatedVal = f.AttainedVal
			f.RemSizeVal -= 2 * shares[f.JobID]
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return out, log.Bytes()
}
