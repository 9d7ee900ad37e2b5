package engine

// White-box benchmarks of the scheduling round itself: a saturated sim where
// schedule() must run the policy, quantize, and scan candidates but cannot
// launch anything — the steady-path overhead the incremental round work
// targets. They isolate one layer for a profile or a paired `go test -c`
// comparison; the end-to-end record of engine speed is benchmark/.

import (
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// benchSpecs builds n single-stage jobs (duration skewed by index) that
// together demand far more containers than the bench cluster offers.
func benchSpecs(n int) []job.Spec {
	specs := make([]job.Spec, n)
	for i := range specs {
		tasks := make([]job.TaskSpec, 40)
		for t := range tasks {
			tasks[t] = job.TaskSpec{Duration: float64(10 + (i*7+t)%90), Containers: 1}
		}
		specs[i] = job.Spec{
			ID:       i + 1,
			Priority: i%5 + 1,
			Arrival:  0,
			Stages:   []job.StageSpec{{Name: "map", Tasks: tasks}},
		}
	}
	return specs
}

// newBenchSim admits every job at t=0 and runs one round to saturate the
// cluster, so subsequent schedule() calls measure pure round overhead.
// FullReschedule keeps the saturated-round short-circuit out of the way: the
// benchmark measures the cost of a complete policy + quantize + scan round.
// probe, when non-nil, is attached as the sim's telemetry probe (see
// BenchmarkScheduleRoundProbed).
func newBenchSim(tb testing.TB, policy sched.Scheduler, probe obs.Probe) *sim {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.MaxRunningJobs = 0
	cfg.FullReschedule = true
	cfg.Probe = probe
	return saturate(tb, newSim(benchSpecs(200), policy, cfg))
}

// saturate delivers the t=0 arrivals, admits what the cap allows and runs
// the one round that fills the cluster.
func saturate(tb testing.TB, s *sim) *sim {
	tb.Helper()
	if err := s.armArrivals(); err != nil {
		tb.Fatal(err)
	}
	t, batch, ok := s.queue.PopBatch(nil)
	if !ok || t != 0 || len(batch) != 1 || batch[0].kind != evArrivals {
		tb.Fatalf("expected the arrivals sentinel at t=0, got t=%v ok=%v batch=%v", t, ok, batch)
	}
	if err := s.drainArrivals(t); err != nil {
		tb.Fatal(err)
	}
	s.admit()
	s.schedule()
	if s.usedSlots != s.cfg.Containers {
		tb.Fatalf("bench sim not saturated: %d/%d containers busy", s.usedSlots, s.cfg.Containers)
	}
	return s
}

func BenchmarkScheduleRound(b *testing.B) {
	cases := []struct {
		name string
		mk   func(b *testing.B) sched.Scheduler
	}{
		{"LASMQ", func(b *testing.B) sched.Scheduler {
			mq, err := core.New(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			return mq
		}},
		{"Fair", func(*testing.B) sched.Scheduler { return sched.NewFair() }},
		{"LAS", func(*testing.B) sched.Scheduler { return sched.NewLAS() }},
		{"FIFO", func(*testing.B) sched.Scheduler { return sched.NewFIFO() }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := newBenchSim(b, tc.mk(b), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.schedule()
			}
		})
	}
}
