package engine

import (
	"math"
	"testing"

	"lasmq/internal/job"
	"lasmq/internal/sched"
)

// TestIdleEstimateHolds: once a stage runs nothing, its progress is its
// completed tasks alone, so the job's estimate is constant in the clock — the
// premise on which the change log leaves an idle job unnamed. Four tasks of
// one stage start at different times and end in another order, one of them
// completing and three failing, which leaves the stage idle with three tasks
// ready; progress sums built by adding and removing each attempt's
// 1/duration would keep a rounding residue there and drift with the clock.
func TestIdleEstimateHolds(t *testing.T) {
	durations := []float64{3, 7, 11, 13}
	tasks := make([]job.TaskSpec, len(durations))
	for i, d := range durations {
		tasks[i] = job.TaskSpec{Duration: d, Containers: 1}
	}
	specs := []job.Spec{{ID: 1, Stages: []job.StageSpec{{Name: "map", Tasks: tasks}}}}
	cfg := DefaultConfig()
	s := testSim(specs, sched.NewFIFO(), cfg, false)
	defer s.release()
	if err := s.drainArrivals(0); err != nil {
		t.Fatal(err)
	}
	s.admit()
	js := s.running[0]
	for i, start := range []float64{0, 1.3, 2.9, 4.1} {
		s.now = start
		if started, _ := s.startNextReadyTask(js, 0); !started {
			t.Fatalf("task %d did not start", i)
		}
	}
	st := &js.stages[0]
	for _, end := range []struct {
		task    int
		at      float64
		success bool
	}{{2, 5.3, false}, {0, 6.1, true}, {3, 7.7, false}, {1, 8.9, false}} {
		s.now = end.at
		id := st.tasks[end.task].attemptIDs[0]
		s.attempts[id].success = end.success
		s.handleAttemptDone(id)
	}
	if js.usage != 0 || st.doneTasks != 1 || js.readyContainers != 3 {
		t.Fatalf("usage %d, %d tasks done, %d containers ready; want an idle stage, 1 done and 3 ready",
			js.usage, st.doneTasks, js.readyContainers)
	}
	var est []float64
	for _, now := range []float64{9, 100, 1e4, 1e6} {
		s.now = now
		if p := st.progress(now); p != 0.25 {
			t.Errorf("t=%v: progress %v, want 0.25, the one task done of four", now, p)
		}
		est = append(est, js.view.Estimated())
	}
	for i := range est {
		if math.Float64bits(est[i]) != math.Float64bits(est[0]) {
			t.Fatalf("the idle job's estimate moves with the clock: %v", est)
		}
	}
}
