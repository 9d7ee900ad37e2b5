package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/job"
	"lasmq/internal/sched"
)

// maintainedSpecs is a chaos mix for TestMaintainedRoundState: single-stage
// jobs, map-reduce jobs with 2-container reduce tasks and fan-out DAGs (one
// root unlocking three branches that join), arriving in bursts, with job IDs
// descending along the arrival order so that the ascending-ID list is never
// the running list itself.
func maintainedSpecs(n int) []job.Spec {
	r := rand.New(rand.NewSource(31))
	tasks := func(k, containers int) []job.TaskSpec {
		ts := make([]job.TaskSpec, k)
		for i := range ts {
			ts[i] = job.TaskSpec{Duration: 1 + 9*r.Float64(), Containers: containers}
		}
		return ts
	}
	specs := make([]job.Spec, n)
	arrival := 0.0
	for i := range specs {
		if i%4 != 0 {
			arrival += 2 * r.Float64()
		}
		spec := job.Spec{ID: 5000 - 7*i, Priority: 1 + i%3, Arrival: arrival}
		switch i % 3 {
		case 0:
			spec.Stages = []job.StageSpec{{Name: "map", Tasks: tasks(2+r.Intn(10), 1)}}
		case 1:
			spec.Stages = []job.StageSpec{
				{Name: "map", Tasks: tasks(1+r.Intn(6), 1)},
				{Name: "reduce", Tasks: tasks(1+r.Intn(3), 2)},
			}
		default:
			spec.Stages = []job.StageSpec{
				{Name: "root", Tasks: tasks(1+r.Intn(3), 1)},
				{Name: "a", Tasks: tasks(1+r.Intn(3), 1), DependsOn: []int{0}},
				{Name: "b", Tasks: tasks(1+r.Intn(3), 2), DependsOn: []int{0}},
				{Name: "c", Tasks: tasks(1+r.Intn(3), 1), DependsOn: []int{0}},
				{Name: "join", Tasks: tasks(1, 1), DependsOn: []int{1, 2, 3}},
			}
		}
		specs[i] = spec
	}
	return specs
}

// roundRecorder is LAS_MQ remembering what the latest round handed it: the
// views and slots of an executed round (AssignDense) or of an observation
// round (ObserveDense), and which of the two it was.
type roundRecorder struct {
	*core.LASMQ
	rounds   int
	observed bool
	jobs     []sched.JobView
	slots    []int32
}

func (p *roundRecorder) record(jobs []sched.JobView, slots []int32, observed bool) {
	p.rounds++
	p.observed = observed
	p.jobs = append(p.jobs[:0], jobs...)
	p.slots = append(p.slots[:0], slots...)
}

func (p *roundRecorder) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	p.record(jobs, slots, false)
	p.LASMQ.AssignDense(now, capacity, jobs, slots, changed, freed, shares)
}

func (p *roundRecorder) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	p.record(jobs, slots, true)
	p.LASMQ.ObserveDense(now, jobs, slots, changed, freed)
}

// TestMaintainedRoundState steps chaos runs (failures, stragglers,
// speculation, DAG fan-out, the admission cap binding; materialised and
// streamed) one instant at a time and, after every scheduling round, holds
// the state the round maintains incrementally to the state it used to derive:
// each running job's ready counter against a walk of its active stages, the
// cluster-wide readySlots against the counters' sum, the views and slots the
// policy was handed against the running list, each job's viewIdx against its
// place in it, and the cached ascending-ID list against a fresh sort of the
// running list. Observation rounds are held to the same as executed ones.
func TestMaintainedRoundState(t *testing.T) {
	specs := maintainedSpecs(90)
	for _, streamed := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Containers = 11
		cfg.MaxRunningJobs = 7
		cfg.FailureProb = 0.15
		cfg.StragglerProb = 0.2
		cfg.StragglerFactor = 3
		cfg.Speculation = true
		cfg.Seed = 3
		mq := core.DefaultConfig()
		mq.FirstThreshold = 10
		lasmq, err := core.New(mq)
		if err != nil {
			t.Fatal(err)
		}
		policy := &roundRecorder{LASMQ: lasmq}
		s := testSim(specs, policy, cfg, streamed)
		if err := s.drainArrivals(math.Inf(-1)); err != nil {
			t.Fatal(err)
		}
		steps, policyRounds, observedRounds, cachedRounds, unsortedRounds := 0, 0, 0, 0, 0
		for s.remaining > 0 || s.moreArrivals {
			seen, rebuilds := policy.rounds, s.viewRebuilds
			if err := s.step(); err != nil {
				t.Fatal(err)
			}
			steps++
			sum := 0
			for _, js := range s.running {
				walk := 0
				for _, si := range js.activeStages {
					walk += js.stages[si].readyContainers
				}
				if js.readyContainers != walk {
					t.Fatalf("step %d (t=%v): job %d keeps %d ready containers, its active stages hold %d",
						steps, s.now, js.spec.ID, js.readyContainers, walk)
				}
				sum += js.readyContainers
			}
			if s.readySlots != sum {
				t.Fatalf("step %d (t=%v): readySlots %d, the running jobs' counters sum to %d", steps, s.now, s.readySlots, sum)
			}
			if policy.rounds == seen {
				continue // no views, or no round: nothing was handed to the policy
			}
			policyRounds++
			if s.viewsStale {
				t.Fatalf("step %d: the round ran on a registration marked stale", steps)
			}
			if s.viewRebuilds == rebuilds {
				cachedRounds++
			}
			if len(policy.jobs) != len(s.running) {
				t.Fatalf("step %d: the policy saw %d views, %d jobs are running", steps, len(policy.jobs), len(s.running))
			}
			for i, js := range s.running {
				if policy.jobs[i] != sched.JobView(&js.view) || policy.slots[i] != js.slot || js.viewIdx != i {
					t.Fatalf("step %d: view %d is not running job %d's (slot %d, seen %d; viewIdx %d)",
						steps, i, js.spec.ID, js.slot, policy.slots[i], js.viewIdx)
				}
			}
			if policy.observed {
				observedRounds++
			}
			want := slices.Clone(s.running)
			slices.SortFunc(want, compareJobID)
			if !slices.Equal(s.idOrder, want) {
				t.Fatalf("step %d: the cached ID order is not the running jobs sorted by ID", steps)
			}
			if !slices.Equal(want, s.running) {
				unsortedRounds++
			}
		}
		s.release()
		t.Logf("streamed %v: %d steps, %d policy rounds (%d observations, %d on a cached registration, %d with ID order != running order)",
			streamed, steps, policyRounds, observedRounds, cachedRounds, unsortedRounds)
		if observedRounds == 0 || cachedRounds == 0 || unsortedRounds == 0 || cachedRounds == policyRounds {
			t.Errorf("streamed %v: the run did not exercise every path: %d observed, %d cached of %d, %d unsorted",
				streamed, observedRounds, cachedRounds, policyRounds, unsortedRounds)
		}
	}
}
