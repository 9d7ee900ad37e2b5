package core_test

import (
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	jobspec "lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/workload"
)

// wrapWorkload is a seed-varied mix of small and large multi-stage jobs with
// enough spread to cross LAS_MQ thresholds and queue at admission.
func wrapWorkload(seed int64) []jobspec.Spec {
	specs := make([]jobspec.Spec, 0, 20)
	for i := 0; i < 20; i++ {
		id := i + 1
		arrival := float64(i) * float64(2+seed%3)
		dur := float64(3 + (i*int(seed+7))%60)
		tasks := make([]jobspec.TaskSpec, 2+i%5)
		for t := range tasks {
			tasks[t] = jobspec.TaskSpec{Duration: dur + float64(t), Containers: 1 + t%2}
		}
		specs = append(specs, jobspec.Spec{
			ID: id, Bin: 1 + i%4, Priority: 1 + i%5, Arrival: arrival,
			Stages: []jobspec.StageSpec{
				{Name: "map", Tasks: tasks},
				{Name: "reduce", Tasks: []jobspec.TaskSpec{{Duration: dur / 2, Containers: 2}}},
			},
		})
	}
	return specs
}

func wrapConfig(seed int64) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Containers = 14
	cfg.MaxRunningJobs = 5
	cfg.FailureProb = 0.1
	cfg.Seed = seed
	return cfg
}

func runWrapped(t *testing.T, seed int64, mk func() sched.Scheduler, full bool) *engine.Result {
	t.Helper()
	cfg := wrapConfig(seed)
	cfg.FullReschedule = full
	res, err := engine.Run(wrapWorkload(seed), mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBlendDegenerateTransparent: a theta=0 blend must schedule exactly like
// its bare primary (and theta=1 like its bare secondary) — in incremental
// mode this only holds if Blend forwards Observe/ObserveHorizon correctly.
// Only the Scheduler name may differ.
func TestBlendDegenerateTransparent(t *testing.T) {
	mkLASMQ := func() sched.Scheduler {
		mq, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return mq
	}
	cases := []struct {
		name  string
		bare  func() sched.Scheduler
		theta float64
	}{
		{"theta0-lasmq-primary", mkLASMQ, 0},
		{"theta1-fair-secondary", func() sched.Scheduler { return sched.NewFair() }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				bare := runWrapped(t, seed, tc.bare, false)
				blended := runWrapped(t, seed, func() sched.Scheduler {
					b, err := sched.NewBlend(mkLASMQ(), sched.NewFair(), tc.theta)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}, false)
				blended.Scheduler = bare.Scheduler // names legitimately differ
				if !reflect.DeepEqual(bare, blended) {
					t.Fatalf("seed %d: degenerate blend differs from its active component", seed)
				}
			}
		})
	}
}

// TestRecorderSizesMatchInner cross-checks the occupancy an
// obs.QueueTimeline keeps from LAS_MQ's probe events against the
// scheduler's authoritative QueueSizes at the end of a run.
func TestRecorderSizesMatchInner(t *testing.T) {
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	timeline := obs.NewQueueTimeline(core.DefaultConfig().Queues, 0) // sample every round
	cfg := wrapConfig(3)
	cfg.Probe = timeline
	if _, err := engine.Run(wrapWorkload(3), mq, cfg); err != nil {
		t.Fatal(err)
	}
	samples := timeline.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	// The final sample must agree with the scheduler's final state.
	last := samples[len(samples)-1]
	if got := mq.QueueSizes(); !reflect.DeepEqual(last.Sizes, got) {
		t.Fatalf("final sample %v != QueueSizes %v", last.Sizes, got)
	}
	deepest := 0
	for _, s := range samples {
		for q, n := range s.Sizes {
			if n < 0 {
				t.Fatalf("sample at t=%v has negative occupancy: %v", s.Time, s.Sizes)
			}
			if n > 0 && q > deepest {
				deepest = q
			}
		}
	}
	if deepest < 2 {
		t.Fatalf("workload never pushed jobs past queue %d; the cross-check is too weak", deepest)
	}
}

// TestQueueRecorderEndToEnd drives a whole engine run of the Table I
// workload watched by a queue timeline: a large job must be observed in
// progressively deeper queues.
func TestQueueRecorderEndToEnd(t *testing.T) {
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	timeline := obs.NewQueueTimeline(core.DefaultConfig().Queues, 0)
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 4
	specs, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Probe = timeline
	if _, err := engine.Run(specs[:20], mq, cfg); err != nil {
		t.Fatal(err)
	}
	samples := timeline.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	deepest := 0
	for _, s := range samples {
		for q, n := range s.Sizes {
			if n > 0 && q > deepest {
				deepest = q
			}
		}
	}
	if deepest < 2 {
		t.Errorf("deepest occupied queue = %d; large jobs never demoted past queue 1?", deepest)
	}
}
