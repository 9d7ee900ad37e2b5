package engine_test

import (
	"math"
	"math/rand"
	"testing"

	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/job"
	"lasmq/internal/sched"
)

// The task-level engine and the fluid simulator model the same cluster at
// different granularities. For workloads expressible in both — single-stage
// jobs of unit-container tasks — their results must agree up to task
// granularity. This cross-check catches modeling bugs in either engine.

// crossJob returns the same job in both representations: n tasks of the
// given duration, so size = n*duration and width = n.
func crossJob(id int, arrival float64, n int, duration float64) (job.Spec, fluid.JobSpec) {
	tasks := make([]job.TaskSpec, n)
	for i := range tasks {
		tasks[i] = job.TaskSpec{Duration: duration, Containers: 1}
	}
	e := job.Spec{
		ID: id, Name: "cross", Bin: 1, Priority: 1, Arrival: arrival,
		Stages: []job.StageSpec{{Name: "map", Tasks: tasks}},
	}
	f := fluid.JobSpec{
		ID: id, Arrival: arrival,
		Size:  float64(n) * duration,
		Width: float64(n), Priority: 1,
	}
	return e, f
}

func crossCheck(t *testing.T, seed int64, policyName string, mkEngine, mkFluid func() sched.Scheduler) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const (
		capacity = 16
		duration = 4.0
	)
	var (
		eSpecs []job.Spec
		fSpecs []fluid.JobSpec
	)
	arrival := 0.0
	for i := 1; i <= 12; i++ {
		arrival += r.ExpFloat64() * 10
		n := 1 + r.Intn(24)
		e, f := crossJob(i, arrival, n, duration)
		eSpecs = append(eSpecs, e)
		fSpecs = append(fSpecs, f)
	}

	eRes, err := engine.Run(eSpecs, mkEngine(), engine.Config{Containers: capacity})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	fRes, err := fluid.Run(fSpecs, mkFluid(), fluid.Config{Capacity: capacity, TaskDuration: duration})
	if err != nil {
		t.Fatalf("fluid: %v", err)
	}

	for i := range eSpecs {
		eResp := eRes.Jobs[i].ResponseTime
		fResp := fRes.Jobs[i].ResponseTime
		// Task granularity: the engine can only reallocate at task
		// boundaries, so allow a couple of task durations plus 20%.
		tolerance := 2*duration + 0.2*math.Max(eResp, fResp)
		if math.Abs(eResp-fResp) > tolerance {
			t.Errorf("%s seed %d job %d: engine response %.2f vs fluid %.2f (tolerance %.2f)",
				policyName, seed, eSpecs[i].ID, eResp, fResp, tolerance)
		}
	}
}

func TestEnginesAgreeFIFO(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		crossCheck(t, seed, "FIFO",
			func() sched.Scheduler { return sched.NewFIFO() },
			func() sched.Scheduler { return sched.NewFIFO() })
	}
}

func TestEnginesAgreeSJF(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		crossCheck(t, seed, "SJF",
			func() sched.Scheduler { return sched.NewSJF() },
			func() sched.Scheduler { return sched.NewSJF() })
	}
}

func TestEnginesAgreeFair(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		crossCheck(t, seed, "FAIR",
			func() sched.Scheduler { return sched.NewFair() },
			func() sched.Scheduler { return sched.NewFair() })
	}
}

// TestEnginesAgreeSequentialExact pins an exactly computable case in both
// engines: jobs that each fill the whole cluster run strictly one after
// another under FIFO.
func TestEnginesAgreeSequentialExact(t *testing.T) {
	const capacity = 8
	var (
		eSpecs []job.Spec
		fSpecs []fluid.JobSpec
	)
	for i := 1; i <= 4; i++ {
		e, f := crossJob(i, 0, capacity, 10)
		eSpecs = append(eSpecs, e)
		fSpecs = append(fSpecs, f)
	}
	eRes, err := engine.Run(eSpecs, sched.NewFIFO(), engine.Config{Containers: capacity})
	if err != nil {
		t.Fatal(err)
	}
	fRes, err := fluid.Run(fSpecs, sched.NewFIFO(), fluid.Config{Capacity: capacity, TaskDuration: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := float64((i + 1) * 10)
		if got := eRes.Jobs[i].ResponseTime; math.Abs(got-want) > 1e-9 {
			t.Errorf("engine job %d response = %v, want %v", i+1, got, want)
		}
		if got := fRes.Jobs[i].ResponseTime; math.Abs(got-want) > 1e-6 {
			t.Errorf("fluid job %d response = %v, want %v", i+1, got, want)
		}
	}
}
