package engine_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// randomWorkload builds a random mixed workload (some linear map-reduce
// jobs, some DAGs) from a seed.
func randomWorkload(seed int64, jobs int) []job.Spec {
	r := rand.New(rand.NewSource(seed))
	specs := make([]job.Spec, 0, jobs)
	arrival := 0.0
	for i := 1; i <= jobs; i++ {
		arrival += r.ExpFloat64() * 15
		var spec job.Spec
		switch r.Intn(3) {
		case 0: // single stage
			spec = job.Spec{
				ID: i, Name: "single", Bin: 1, Priority: r.Intn(5) + 1, Arrival: arrival,
				Stages: []job.StageSpec{randStage(r, 1+r.Intn(12), 1)},
			}
		case 1: // map-reduce chain
			spec = job.Spec{
				ID: i, Name: "chain", Bin: 2, Priority: r.Intn(5) + 1, Arrival: arrival,
				Stages: []job.StageSpec{
					randStage(r, 2+r.Intn(10), 1),
					randStage(r, 1+r.Intn(4), 2),
				},
			}
		default: // diamond DAG
			root := randStage(r, 1+r.Intn(6), 1)
			root.DependsOn = []int{}
			left := randStage(r, 1+r.Intn(6), 1)
			left.DependsOn = []int{0}
			right := randStage(r, 1+r.Intn(6), 1)
			right.DependsOn = []int{0}
			sink := randStage(r, 1+r.Intn(3), 2)
			sink.DependsOn = []int{1, 2}
			spec = job.Spec{
				ID: i, Name: "dag", Bin: 3, Priority: r.Intn(5) + 1, Arrival: arrival,
				Stages: []job.StageSpec{root, left, right, sink},
			}
		}
		specs = append(specs, spec)
	}
	return specs
}

func randStage(r *rand.Rand, n, containers int) job.StageSpec {
	tasks := make([]job.TaskSpec, n)
	for i := range tasks {
		tasks[i] = job.TaskSpec{Duration: 1 + r.Float64()*20, Containers: containers}
	}
	return job.StageSpec{Name: "s", Tasks: tasks}
}

// TestEngineInvariantsProperty checks, across random workloads and policies:
// every job completes after its arrival, consumed service equals nominal
// (without failures/speculation), peak usage respects capacity, utilization
// is a fraction, and the makespan respects the capacity bound.
func TestEngineInvariantsProperty(t *testing.T) {
	mkPolicies := []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFIFO() },
		func() sched.Scheduler { return sched.NewFair() },
		func() sched.Scheduler { return sched.NewLAS() },
		func() sched.Scheduler {
			s, _ := core.New(core.DefaultConfig())
			return s
		},
	}
	f := func(seed int64, nRaw uint8, mrRaw uint8) bool {
		jobs := int(nRaw%12) + 2
		specs := randomWorkload(seed, jobs)
		cfg := engine.Config{
			Containers:     10,
			MaxRunningJobs: int(mrRaw % 5), // 0..4 (0 = unlimited)
		}
		var totalService float64
		for i := range specs {
			totalService += specs[i].TotalService()
		}
		for _, mk := range mkPolicies {
			res, err := engine.Run(specs, mk(), cfg)
			if err != nil {
				return false
			}
			if len(res.Jobs) != jobs {
				return false
			}
			var consumed float64
			for i, jr := range res.Jobs {
				if jr.Completed < jr.Arrival || jr.ResponseTime <= 0 {
					return false
				}
				if jr.Admitted < jr.Arrival {
					return false
				}
				if jr.Failures != 0 || jr.Speculative != 0 {
					return false
				}
				if jr.Attempts != specs[i].TotalTasks() {
					return false
				}
				consumed += jr.Service
			}
			if math.Abs(consumed-totalService) > 1e-6*totalService {
				return false
			}
			if res.PeakUsage > cfg.Containers || res.PeakUsage <= 0 {
				return false
			}
			if res.Utilization <= 0 || res.Utilization > 1+1e-9 {
				return false
			}
			// Work conservation bound: the cluster cannot finish faster than
			// total service / capacity.
			if res.Makespan < totalService/float64(cfg.Containers)-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fluidEquivalent converts a single-stage, uniform-task-duration workload
// into its fluid-simulator form: a job with n tasks of duration d and one
// container each is a malleable demand of size n*d with parallelism cap n.
func fluidEquivalent(specs []job.Spec, taskDuration float64) []fluid.JobSpec {
	out := make([]fluid.JobSpec, len(specs))
	for i := range specs {
		n := specs[i].TotalTasks()
		out[i] = fluid.JobSpec{
			ID:       specs[i].ID,
			Arrival:  specs[i].Arrival,
			Size:     float64(n) * taskDuration,
			Width:    float64(n),
			Priority: specs[i].Priority,
		}
	}
	return out
}

// crossEngineWorkload builds a workload both engines represent exactly:
// single-stage jobs, every task the same duration, one container per task,
// equal priorities, with a heavy-tailed task-count mix so the policies
// separate.
func crossEngineWorkload(seed int64, jobs int, taskDuration float64) []job.Spec {
	r := rand.New(rand.NewSource(seed))
	specs := make([]job.Spec, 0, jobs)
	arrival := 0.0
	for i := 1; i <= jobs; i++ {
		arrival += r.ExpFloat64() * 1.5
		n := 1 + r.Intn(4)
		if r.Float64() < 0.25 { // a quarter of the jobs are an order heavier
			n = 15 + r.Intn(25)
		}
		tasks := make([]job.TaskSpec, n)
		for t := range tasks {
			tasks[t] = job.TaskSpec{Duration: taskDuration, Containers: 1}
		}
		specs = append(specs, job.Spec{
			ID: i, Name: "uniform", Bin: 1, Priority: 1, Arrival: arrival,
			Stages: []job.StageSpec{{Name: "s", Tasks: tasks}},
		})
	}
	return specs
}

// TestCrossEngineRankingAgreement is the differential property test between
// the task-level engine and the fluid simulator: on workloads both model
// exactly, the two must agree on the relative ordering of {FIFO, FAIR, LAS,
// LAS_MQ} mean response times. The engines discretize differently (whole
// containers vs. fractional shares), so pairs whose means sit within a
// tolerance band in either engine count as ties; what must never happen is a
// strict inversion — one engine claiming a policy clearly wins while the
// other claims it clearly loses.
//
// Both simulators drive policies through the internal/substrate kernel
// (driver dispatch, admission, view registry, result accumulation), so this
// doubles as a kernel differential: the means compared below come from the
// shared substrate.Result accumulator on each side. The live mini-YARN leg
// of the same property is yarn.TestEngineYarnCompletionOrderAgreement.
func TestCrossEngineRankingAgreement(t *testing.T) {
	const (
		taskDuration = 2.0
		containers   = 10
		margin       = 0.15 // relative gap below which a pair is a tie
	)
	mqConfig := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Queues = 5
		cfg.FirstThreshold = 4
		cfg.Step = 3
		cfg.StageAware = false // fluid jobs have no stages; compare like with like
		cfg.OrderByDemand = false
		return cfg
	}
	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{name: "FIFO", mk: func() sched.Scheduler { return sched.NewFIFO() }},
		{name: "FAIR", mk: func() sched.Scheduler { return sched.NewFair() }},
		{name: "LAS", mk: func() sched.Scheduler { return sched.NewLAS() }},
		{name: "LAS_MQ", mk: func() sched.Scheduler {
			s, err := core.New(mqConfig())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	agreements := 0 // pairs clearly ordered in BOTH engines, same way
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		specs := crossEngineWorkload(seed, 20, taskDuration)
		fspecs := fluidEquivalent(specs, taskDuration)
		engineMeans := make(map[string]float64, len(policies))
		fluidMeans := make(map[string]float64, len(policies))
		for _, p := range policies {
			eres, err := engine.Run(specs, p.mk(), engine.Config{Containers: containers})
			if err != nil {
				t.Fatalf("seed %d engine %s: %v", seed, p.name, err)
			}
			engineMeans[p.name] = eres.MeanResponseTime()
			fres, err := fluid.Run(fspecs, p.mk(), fluid.Config{
				Capacity:     containers,
				TaskDuration: taskDuration,
			})
			if err != nil {
				t.Fatalf("seed %d fluid %s: %v", seed, p.name, err)
			}
			fluidMeans[p.name] = fres.MeanResponseTime()
		}
		for i := range policies {
			for j := i + 1; j < len(policies); j++ {
				a, b := policies[i].name, policies[j].name
				eCmp := clearOrder(engineMeans[a], engineMeans[b], margin)
				fCmp := clearOrder(fluidMeans[a], fluidMeans[b], margin)
				if eCmp != 0 && fCmp != 0 {
					if eCmp != fCmp {
						t.Errorf("seed %d: engines disagree on %s vs %s: engine means %.2f/%.2f, fluid means %.2f/%.2f",
							seed, a, b, engineMeans[a], engineMeans[b], fluidMeans[a], fluidMeans[b])
					} else {
						agreements++
					}
				}
			}
		}
	}
	// The property is vacuous if every pair ties everywhere; the workload is
	// built to separate the policies, so demand real agreement.
	if agreements < 8 {
		t.Errorf("only %d clearly-ordered pair agreements across all seeds; workload no longer separates the policies", agreements)
	}
}

// clearOrder returns -1 if a is clearly smaller than b, +1 if clearly
// larger, and 0 when the pair is within the relative tie margin.
func clearOrder(a, b, margin float64) int {
	if a < b*(1-margin) {
		return -1
	}
	if a > b*(1+margin) {
		return 1
	}
	return 0
}

// TestEngineResponseNeverBeatsIsolated: contention can only slow a job down.
func TestEngineResponseNeverBeatsIsolated(t *testing.T) {
	specs := randomWorkload(3, 8)
	cfg := engine.Config{Containers: 10}
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFIFO() },
		func() sched.Scheduler {
			s, _ := core.New(core.DefaultConfig())
			return s
		},
	} {
		res, err := engine.Run(specs, mk(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			iso, err := engine.RunIsolated(specs[i], sched.NewFIFO(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Jobs[i].ResponseTime < iso-1e-9 {
				t.Errorf("%s job %d response %v beats isolated %v",
					res.Scheduler, specs[i].ID, res.Jobs[i].ResponseTime, iso)
			}
		}
	}
}

// TestTimelineSampling: an obs.Series watching an engine run with a 5-unit
// window takes ordered points at least a window apart, with the running
// containers within the cluster and no negative job count.
func TestTimelineSampling(t *testing.T) {
	series := obs.NewSeries(5)
	cfg := engine.Config{Containers: 10, Probe: series}
	if _, err := engine.Run(randomWorkload(5, 10), sched.NewFair(), cfg); err != nil {
		t.Fatal(err)
	}
	pts := series.Points()
	if len(pts) < 2 {
		t.Fatalf("%d points", len(pts))
	}
	for i, pt := range pts {
		if i > 0 && pt.Time < pts[i-1].Time+5 {
			t.Fatalf("points at %v and %v closer than the window", pts[i-1].Time, pt.Time)
		}
		if pt.RunningContainers < 0 || pt.RunningContainers > 10 || pt.WaitingJobs < 0 || pt.LiveJobs < pt.WaitingJobs {
			t.Fatalf("point %+v: containers out of [0,10] or bad job counts", pt)
		}
	}
}

// TestUtilizationHighUnderOverload: with far more demand than capacity, the
// cluster should be nearly fully utilized until the work drains.
func TestUtilizationHighUnderOverload(t *testing.T) {
	var specs []job.Spec
	for i := 1; i <= 6; i++ {
		specs = append(specs, job.Spec{
			ID: i, Name: "load", Bin: 1, Priority: 1,
			Stages: []job.StageSpec{randStage(rand.New(rand.NewSource(int64(i))), 40, 1)},
		})
	}
	res, err := engine.Run(specs, sched.NewFair(), engine.Config{Containers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.9 {
		t.Errorf("utilization = %v, want >= 0.9 under overload", res.Utilization)
	}
	if res.PeakUsage != 8 {
		t.Errorf("peak usage = %d, want full capacity 8", res.PeakUsage)
	}
}
