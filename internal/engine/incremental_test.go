package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// diffPolicies builds every scheduler family the engine supports, covering
// stateless policies (no Observer, so a skipped round replays nothing), SRPT
// (an Observer with nothing to replay), LAS_MQ under the stage-aware and the
// plain-attained metric (an Observer whose skipped rounds demote), the
// adaptive wrapper (an Observer whose skipped rounds also feed its refits),
// and a blend whose Observe must forward to exactly the components its Assign
// invokes.
func diffPolicies(t *testing.T) map[string]func() sched.Scheduler {
	t.Helper()
	mustLASMQ := func(cfg core.Config) *core.LASMQ {
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]func() sched.Scheduler{
		"FIFO":    func() sched.Scheduler { return sched.NewFIFO() },
		"Fair":    func() sched.Scheduler { return sched.NewFair() },
		"PS":      func() sched.Scheduler { return sched.NewPS() },
		"LAS":     func() sched.Scheduler { return sched.NewLAS() },
		"SJF":     func() sched.Scheduler { return sched.NewSJF() },
		"SRTF":    func() sched.Scheduler { return sched.NewSRTF() },
		"SRPT":    func() sched.Scheduler { return sched.NewSRPT() },
		"Gittins": func() sched.Scheduler { return sched.NewGittins(pinnedGittinsModel(t)) },
		"LASMQ-stageaware": func() sched.Scheduler {
			return mustLASMQ(core.DefaultConfig())
		},
		"LASMQ-attained": func() sched.Scheduler {
			cfg := core.DefaultConfig()
			cfg.FirstThreshold = 10
			cfg.StageAware = false
			cfg.OrderByDemand = false
			return mustLASMQ(cfg)
		},
		"Adaptive": func() sched.Scheduler {
			cfg := core.DefaultAdaptiveConfig()
			cfg.WarmupJobs = 4
			cfg.RefitEvery = 4
			a, err := core.NewAdaptive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"Blend": func() sched.Scheduler {
			b, err := sched.NewBlend(mustLASMQ(core.DefaultConfig()), sched.NewFair(), 0.4)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
}

// diffWorkload synthesizes a seed-dependent mix of single-stage, map-reduce
// and diamond-DAG jobs with bursty arrivals, so runs exercise admission
// queuing, multi-container reservations, dependent-stage activation and idle
// gaps — every path the incremental round logic short-circuits around.
func diffWorkload(seed int64, n int) []job.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]job.Spec, 0, n)
	var arrival float64
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			arrival += rng.Float64() * 40 // idle gap between bursts
		}
		switch i % 3 {
		case 0:
			specs = append(specs, uniformJob(i+1, arrival, 1+rng.Intn(12), 1+rng.Float64()*15))
		case 1:
			specs = append(specs, mapReduceJob(i+1, arrival,
				1+rng.Intn(8), 1+rng.Float64()*10, 1+rng.Intn(3), 2+rng.Float64()*8))
		default:
			specs = append(specs, job.Spec{
				ID:      i + 1,
				Name:    "diamond",
				Bin:     3,
				Arrival: arrival,
				Stages: []job.StageSpec{
					stage("root", 1+rng.Intn(4), 1+rng.Float64()*6),
					stage("left", 1+rng.Intn(3), 1+rng.Float64()*6, 0),
					stage("right", 1+rng.Intn(3), 1+rng.Float64()*6, 0),
					stage("join", 1, 1+rng.Float64()*4, 1, 2),
				},
			})
		}
		arrival += rng.Float64() * 3
	}
	return specs
}

// diffConfigs is the noise matrix of the engine differentials: each entry
// adjusts a 20-container, uncapped, chaos-free base configuration.
func diffConfigs() map[string]func(*engine.Config) {
	return map[string]func(*engine.Config){
		"clean":     func(*engine.Config) {},
		"admission": func(c *engine.Config) { c.Containers = 12; c.MaxRunningJobs = 3 },
		"failures":  func(c *engine.Config) { c.FailureProb = 0.15 },
		"stragglers": func(c *engine.Config) {
			c.StragglerProb = 0.25
			c.StragglerFactor = 4
		},
		"speculation": func(c *engine.Config) {
			c.StragglerProb = 0.25
			c.StragglerFactor = 4
			c.Speculation = true
		},
		"everything": func(c *engine.Config) {
			c.Containers = 16
			c.MaxRunningJobs = 4
			c.FailureProb = 0.1
			c.StragglerProb = 0.2
			c.StragglerFactor = 3
			c.Speculation = true
			c.SampleInterval = 5
		},
	}
}

// demoteOnlyRun runs specs under p with cfg and, when p is LAS_MQ, with a
// schedtest.DemoteOnly over its ladder as the probe, failing t on the first
// queue event that breaks the demote-only rule. It returns the demotions the
// probe checked (0 for another policy).
func demoteOnlyRun(t *testing.T, specs []job.Spec, p sched.Scheduler, cfg engine.Config) (*engine.Result, int) {
	t.Helper()
	var check *schedtest.DemoteOnly
	if mq, ok := p.(*core.LASMQ); ok {
		c := mq.Config()
		check = &schedtest.DemoteOnly{Queues: c.Queues, FirstThreshold: c.FirstThreshold, Step: c.Step}
		cfg.Probe = check
	}
	res, err := engine.Run(specs, p, cfg)
	if err != nil {
		t.Fatalf("seed %d (full reschedule %v): %v", cfg.Seed, cfg.FullReschedule, err)
	}
	if check == nil {
		return res, 0
	}
	if err := check.Err(); err != nil {
		t.Fatalf("seed %d (full reschedule %v): %v", cfg.Seed, cfg.FullReschedule, err)
	}
	return res, check.Demotions()
}

// TestIncrementalMatchesFull is the correctness gate of the incremental
// scheduling rounds: for every policy family, noise configuration and seed,
// a run with the fast paths enabled must produce a byte-identical Result to
// a run that re-invokes the policy every round. LAS_MQ's queue events are
// held to the demote-only rule in both modes (schedtest.DemoteOnly).
func TestIncrementalMatchesFull(t *testing.T) {
	configs := diffConfigs()
	demotions := map[string]int{}
	for pname, mk := range diffPolicies(t) {
		for cname, tweak := range configs {
			t.Run(fmt.Sprintf("%s/%s", pname, cname), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := engine.DefaultConfig()
					cfg.Containers = 20
					cfg.MaxRunningJobs = 0
					cfg.Seed = seed
					tweak(&cfg)

					specs := diffWorkload(seed, 24)

					cfg.FullReschedule = true
					full, n := demoteOnlyRun(t, specs, mk(), cfg)
					demotions[pname] += n
					cfg.FullReschedule = false
					incr, n := demoteOnlyRun(t, specs, mk(), cfg)
					demotions[pname] += n
					if !reflect.DeepEqual(full, incr) {
						for i := range full.Jobs {
							if full.Jobs[i] != incr.Jobs[i] {
								t.Errorf("seed %d job %d differs:\n full %+v\n incr %+v",
									seed, full.Jobs[i].ID, full.Jobs[i], incr.Jobs[i])
							}
						}
						t.Fatalf("seed %d: incremental result differs from full reschedule\n full: makespan=%v util=%v peak=%d\n incr: makespan=%v util=%v peak=%d",
							seed, full.Makespan, full.Utilization, full.PeakUsage,
							incr.Makespan, incr.Utilization, incr.PeakUsage)
					}
				}
			})
		}
	}
	for _, pname := range []string{"LASMQ-stageaware", "LASMQ-attained"} {
		if demotions[pname] == 0 {
			t.Errorf("%s: the demote-only probe checked no demotion", pname)
		}
	}
}

// TestIncrementalThresholdCrossings runs LAS_MQ on a saturated cluster whose
// jobs cross several queue thresholds while it stays saturated, in both
// metric modes, and requires the incremental run to equal the full
// reschedule. An obs.Counters on the incremental run shows the test tests
// something: rounds were skipped, every skipped round observed (LAS_MQ is
// stateful), and jobs were demoted.
func TestIncrementalThresholdCrossings(t *testing.T) {
	// Jobs long enough to be demoted across thresholds 10, 100 while running.
	specs := []job.Spec{
		uniformJob(1, 0, 6, 200),
		uniformJob(2, 0, 6, 120),
		uniformJob(3, 1, 4, 90),
		mapReduceJob(4, 2, 6, 50, 2, 40),
	}
	for _, stageAware := range []bool{false, true} {
		ccfg := core.DefaultConfig()
		ccfg.FirstThreshold = 10
		ccfg.StageAware = stageAware

		cfg := engine.DefaultConfig()
		cfg.Containers = 8 // saturated: 20 ready containers at t=0
		cfg.MaxRunningJobs = 0

		run := func(full bool, probe obs.Probe) *engine.Result {
			t.Helper()
			mq, err := core.New(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.FullReschedule = full
			c.Probe = probe
			res, err := engine.Run(specs, mq, c)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		counters := obs.NewCounters()
		full, incr := run(true, nil), run(false, counters)
		incr.Counters = nil // telemetry, not outcome
		if !reflect.DeepEqual(full, incr) {
			t.Fatalf("stageAware=%v: incremental result differs under threshold crossings", stageAware)
		}
		snap := counters.Snapshot()
		if snap.RoundsSkipped == 0 || snap.RoundsObserved != snap.RoundsSkipped || snap.TotalDemotions() == 0 {
			t.Fatalf("stageAware=%v: %d rounds skipped, %d of them observed, %d demotions; want > 0, all, > 0",
				stageAware, snap.RoundsSkipped, snap.RoundsObserved, snap.TotalDemotions())
		}
	}
}
