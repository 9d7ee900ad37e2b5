package engine_test

import (
	"io"
	"reflect"
	"testing"

	"lasmq/internal/engine"
	"lasmq/internal/obs"
	"lasmq/internal/workload"
)

// TestProbedMatchesUnprobed is the telemetry layer's correctness gate on the
// task-level engine: attaching a probe (with every sink type fanned in) must
// not perturb the simulation. Results are compared byte-for-byte across the
// same policy families and adversarial config the incremental differential
// test uses, with nothing nulled: a Result holds no telemetry.
func TestProbedMatchesUnprobed(t *testing.T) {
	for pname, mk := range diffPolicies(t) {
		t.Run(pname, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := engine.DefaultConfig()
				cfg.Containers = 16
				cfg.MaxRunningJobs = 4
				cfg.FailureProb = 0.1
				cfg.StragglerProb = 0.2
				cfg.StragglerFactor = 3
				cfg.Speculation = true
				cfg.Seed = seed
				specs := diffWorkload(seed, 24)

				plain, err := engine.Run(specs, mk(), cfg)
				if err != nil {
					t.Fatalf("seed %d unprobed: %v", seed, err)
				}
				cfg.Probe = obs.Multi(obs.NewCounters(), obs.NewJSONL(io.Discard), obs.NewChromeTrace(),
					obs.NewRing(1<<12), obs.NewHistograms(), obs.NewSeries(50))
				probed, err := engine.Run(specs, mk(), cfg)
				if err != nil {
					t.Fatalf("seed %d probed: %v", seed, err)
				}
				if !reflect.DeepEqual(plain, probed) {
					t.Fatalf("seed %d: attaching a probe changed the simulation result\n plain: %+v\n probed: %+v",
						seed, plain, probed)
				}
			}
		})
	}
}

// TestProbedCountersConsistency sanity-checks the aggregate snapshot against
// the run it observed: every submitted job was admitted and completed, tasks
// balance, and round accounting covers both executed and skipped rounds.
func TestProbedCountersConsistency(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.Containers = 16
	cfg.MaxRunningJobs = 4
	cfg.FailureProb = 0.1
	counters := obs.NewCounters()
	cfg.Probe = counters

	specs := diffWorkload(7, 30)
	if _, err := engine.Run(specs, diffPolicies(t)["LASMQ-stageaware"](), cfg); err != nil {
		t.Fatal(err)
	}
	s := counters.Snapshot()
	if int(s.JobsSubmitted) != len(specs) || int(s.JobsCompleted) != len(specs) || int(s.JobsAdmitted) != len(specs) {
		t.Fatalf("job accounting: submitted=%d admitted=%d completed=%d, want all %d",
			s.JobsSubmitted, s.JobsAdmitted, s.JobsCompleted, len(specs))
	}
	if s.TasksCompleted+s.TaskFailures != s.TasksLaunched {
		t.Fatalf("task accounting: %d done + %d failed != %d launched",
			s.TasksCompleted, s.TaskFailures, s.TasksLaunched)
	}
	if s.TaskFailures == 0 {
		t.Fatal("failure injection emitted no TaskFail events")
	}
	if s.RoundsExecuted == 0 {
		t.Fatal("no RoundExecuted events")
	}
	if s.PeakAdmissionBacklog == 0 {
		t.Fatal("MaxRunningJobs=4 on 30 jobs should have produced an admission backlog")
	}
	if s.TotalDemotions() == 0 {
		t.Fatal("LAS_MQ demoted no jobs on a multi-bin workload")
	}
}

// TestSeriesRunningWithinContainers: the series' running containers never
// exceed the run's peak usage, with speculation on. The engine kills a
// finished task's speculative siblings without an event of their own, so the
// count holds only if a task's completion ends every attempt of it.
func TestSeriesRunningWithinContainers(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 3
	specs, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Seed = 3
	cfg.Speculation = true
	cfg.StragglerProb = 0.1
	series := obs.NewSeries(50)
	cfg.Probe = series
	res, err := engine.Run(specs, diffPolicies(t)["LASMQ-stageaware"](), cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := series.Points()
	if len(points) == 0 {
		t.Fatal("no series points")
	}
	for _, pt := range points {
		if pt.RunningContainers > int32(res.PeakUsage) || pt.RunningContainers < 0 {
			t.Fatalf("t=%g: %d containers running, peak usage %d", pt.Time, pt.RunningContainers, res.PeakUsage)
		}
	}
	if last := points[len(points)-1]; last.LiveJobs == 0 && last.RunningContainers != 0 {
		t.Fatalf("t=%g: %d containers still running after every job finished", last.Time, last.RunningContainers)
	}
}
