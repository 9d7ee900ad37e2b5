package core_test

import (
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	jobspec "lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/trace"
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
// mode this only holds if Blend forwards Observe correctly.
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

// TestSeriesReportsWhatItNames drives an obs.Series through two real LAS_MQ
// runs — the Table I workload on the engine under the admission cap of 30
// with failures, stragglers and speculation, and an uncapped fluid run of
// 2,000 Facebook jobs — and checks that its points mean what they name:
// ordered and at least a window apart, running containers within the
// cluster, the queues holding exactly the running jobs whenever one runs,
// and the last point's depths equal to LAS_MQ's own.
func TestSeriesReportsWhatItNames(t *testing.T) {
	const window = 50
	check := func(name string, mq *core.LASMQ, capacity int32, run func(obs.Probe) error) {
		series := obs.NewSeries(window)
		if err := run(series); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pts := series.Points()
		if len(pts) < 10 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		checked := 0
		for i, pt := range pts {
			if i > 0 && pt.Time < pts[i-1].Time+window {
				t.Fatalf("%s: point at t=%g follows t=%g by less than a window", name, pt.Time, pts[i-1].Time)
			}
			if pt.RunningContainers < 0 || pt.RunningContainers > capacity {
				t.Fatalf("%s: t=%g: %d containers running on %d", name, pt.Time, pt.RunningContainers, capacity)
			}
			var queued int32
			for _, n := range pt.QueueDepth {
				queued += n
			}
			if running := pt.LiveJobs - pt.WaitingJobs; running > 0 {
				checked++
				if queued != running {
					t.Fatalf("%s: t=%g: %d jobs queued (%v), %d running", name, pt.Time, queued, pt.QueueDepth, running)
				}
			}
		}
		last := pts[len(pts)-1].QueueDepth
		if checked == 0 || len(last) < 3 {
			t.Fatalf("%s: %d points with a running job, %d levels seen", name, checked, len(last))
		}
		if !sameDepths(last, mq.QueueSizes()) {
			t.Fatalf("%s: last point's depths %v, QueueSizes %v", name, last, mq.QueueSizes())
		}
	}

	specs, err := workload.Generate(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ecfg := engine.DefaultConfig()
	ecfg.Seed, ecfg.FailureProb, ecfg.StragglerProb, ecfg.Speculation = 1, 0.05, 0.1, true
	check("engine", mq, int32(ecfg.Containers), func(p obs.Probe) error {
		ecfg.Probe = p
		_, err := engine.Run(specs, mq, ecfg)
		return err
	})

	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs, tcfg.Seed = 2000, 1
	jobs, err := trace.Facebook(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	mqCfg := core.DefaultConfig()
	mqCfg.FirstThreshold, mqCfg.StageAware, mqCfg.OrderByDemand = 1, false, false
	if mq, err = core.New(mqCfg); err != nil {
		t.Fatal(err)
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity
	check("fluid", mq, 0, func(p obs.Probe) error {
		fcfg.Probe = p
		_, err := fluid.Run(jobs, mq, fcfg)
		return err
	})
}

// sameDepths reports whether a Series point's depths, one per level entered,
// equal LAS_MQ's QueueSizes, one per level.
func sameDepths(depth []int32, sizes []int) bool {
	for q, n := range sizes {
		if q < len(depth) && int(depth[q]) != n || q >= len(depth) && n != 0 {
			return false
		}
	}
	return len(depth) <= len(sizes)
}

// deepestLevel returns the deepest queue level any point holds a job in,
// failing on a negative depth.
func deepestLevel(t *testing.T, pts []obs.SeriesPoint) int {
	t.Helper()
	deepest := 0
	for _, pt := range pts {
		for q, n := range pt.QueueDepth {
			if n < 0 {
				t.Fatalf("point at t=%v has negative occupancy: %v", pt.Time, pt.QueueDepth)
			}
			if n > 0 && q > deepest {
				deepest = q
			}
		}
	}
	return deepest
}

// seriesRun runs LAS_MQ over specs under cfg, watched by an obs.Series
// taking a point every round, and returns the policy and the points.
func seriesRun(t *testing.T, specs []jobspec.Spec, cfg engine.Config) (*core.LASMQ, []obs.SeriesPoint) {
	t.Helper()
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	series := obs.NewSeries(1)
	cfg.Probe = series
	if _, err := engine.Run(specs, mq, cfg); err != nil {
		t.Fatal(err)
	}
	pts := series.Points()
	if len(pts) == 0 {
		t.Fatal("no points recorded")
	}
	return mq, pts
}

// TestRecorderSizesMatchInner cross-checks the queue depths an obs.Series
// keeps from LAS_MQ's probe events against the scheduler's authoritative
// QueueSizes at the end of a run.
func TestRecorderSizesMatchInner(t *testing.T) {
	mq, pts := seriesRun(t, wrapWorkload(3), wrapConfig(3))
	if last := pts[len(pts)-1].QueueDepth; !sameDepths(last, mq.QueueSizes()) {
		t.Fatalf("final point %v != QueueSizes %v", last, mq.QueueSizes())
	}
	if deepest := deepestLevel(t, pts); deepest < 2 {
		t.Fatalf("workload never pushed jobs past queue %d; the cross-check is too weak", deepest)
	}
}

// TestQueueRecorderEndToEnd drives a whole engine run of the Table I
// workload watched by a Series: a large job must be observed in
// progressively deeper queues.
func TestQueueRecorderEndToEnd(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 4
	specs, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, pts := seriesRun(t, specs[:20], engine.DefaultConfig()); deepestLevel(t, pts) < 2 {
		t.Errorf("deepest occupied queue = %d; large jobs never demoted past queue 1?", deepestLevel(t, pts))
	}
}
