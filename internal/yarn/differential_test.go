package yarn

import (
	"sort"
	"testing"
	"time"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/sched"
)

// tableIMini is a scaled-down Table-I workload for the live differential
// test: one job per representative PUMA row (names, bins, and the relative
// size ordering match workload.TableI), with task counts and durations shrunk
// so the scaled-clock run finishes in a few hundred milliseconds. Tasks are
// single-stage and one container each so the task engine and the
// node-granular mini-YARN pack identically. Durations are staggered so no
// two tasks ever complete at the same instant: the engine batches
// simultaneous completions into one scheduling round while the live RM runs
// a round per completion message, and distinct completion times make both
// substrates see the identical event sequence. The stagger (>= 2 spec
// seconds between any two events) also dwarfs live wall-clock jitter.
func tableIMini() []job.Spec {
	mk := func(id int, name string, bin, tasks int, dur float64) job.Spec {
		ts := make([]job.TaskSpec, tasks)
		for i := range ts {
			// Distinct per task within a job (+3 each) and per job
			// (+0.1*id) so completion instants never coincide.
			ts[i] = job.TaskSpec{Duration: dur + 3*float64(i) + 0.1*float64(id), Containers: 1}
		}
		return job.Spec{
			ID: id, Name: name, Bin: bin, Priority: 1,
			Stages: []job.StageSpec{{Name: "map", Tasks: ts}},
		}
	}
	return []job.Spec{
		mk(1, "SelfJoin", 1, 2, 15),       // size ~33
		mk(2, "WordCount", 4, 6, 60),      // size ~405
		mk(3, "TeraGen", 1, 1, 25),        // size ~25
		mk(4, "SequenceCount", 3, 4, 45),  // size ~198
		mk(5, "Classification", 2, 3, 30), // size ~99
	}
}

// completionOrderEngine runs the mini workload through the task engine and
// returns job IDs sorted by completion time.
func completionOrderEngine(t *testing.T, policy sched.Scheduler, containers int) []int {
	t.Helper()
	res, err := engine.Run(tableIMini(), policy, engine.Config{Containers: containers})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	jobs := append([]engine.JobResult(nil), res.Jobs...)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Completed < jobs[j].Completed })
	order := make([]int, len(jobs))
	for i, jr := range jobs {
		order[i] = jr.ID
	}
	return order
}

// completionOrderLive runs the same workload on the live mini-YARN cluster
// under a scaled clock and returns job IDs sorted by completion time.
func completionOrderLive(t *testing.T, policy sched.Scheduler, cfg Config) []int {
	t.Helper()
	c, err := New(cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()
	for _, spec := range tableIMini() {
		if err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	reports := drain(t, c)
	sort.SliceStable(reports, func(i, j int) bool {
		return reports[i].Completed.Before(reports[j].Completed)
	})
	order := make([]int, len(reports))
	for i, r := range reports {
		order[i] = r.ID
	}
	return order
}

// TestEngineYarnCompletionOrderAgreement is the cross-substrate differential
// test: the same (scaled-down) Table-I workload driven through the task
// engine and through the live mini-YARN cluster must complete jobs in the
// same order per policy. Both substrates now invoke policies through the
// internal/substrate kernel, so this checks that the live data path — RM
// heartbeat rounds, node-granular launches, wall-clock service accounting —
// preserves the scheduling decisions the discrete-event engine makes exactly.
func TestEngineYarnCompletionOrderAgreement(t *testing.T) {
	// 2 ms per spec second: the timer overshoot each task adds to its
	// container's chain, under the race detector on a busy machine, must
	// stay well inside the closest completion gap (4.6 spec seconds under
	// FIFO); at 1 ms it did not, about once in twenty runs.
	cfg := Config{
		Nodes:             2,
		ContainersPerNode: 2,
		MaxRunningJobs:    0,
		TimeScale:         2 * time.Millisecond,
		HeartbeatInterval: 4 * time.Millisecond,
	}
	containers := cfg.Nodes * cfg.ContainersPerNode

	mq := func() sched.Scheduler {
		mqCfg := core.DefaultConfig()
		mqCfg.StageAware = false // single-stage jobs; compare like with like
		mqCfg.OrderByDemand = false
		s, err := core.New(mqCfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	policies := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{name: "FIFO", mk: func() sched.Scheduler { return sched.NewFIFO() }},
		{name: "LAS_MQ", mk: mq},
	}
	for _, p := range policies {
		want := completionOrderEngine(t, p.mk(), containers)
		got := completionOrderLive(t, p.mk(), cfg)
		if len(got) != len(want) {
			t.Fatalf("%s: live run completed %d jobs, engine %d", p.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: completion order diverged: engine %v, live %v", p.name, want, got)
				break
			}
		}
	}
}
