package engine

// White-box benchmarks of the scheduling round itself, in two regimes. The
// saturated one: schedule() must run the policy, quantize, and scan candidates
// but cannot launch anything, 200 jobs wide with no admission cap — a round no
// workload executes (saturated rounds are skipped; the cap is 30), kept as the
// fixed point earlier rounds of this work were timed at. And freed1, the round
// the workloads do execute: 30 running jobs under the cap, one container just
// freed, one task relaunched onto it. They isolate one layer for a profile or
// a paired `go test -c` comparison; the end-to-end record of engine speed is
// benchmark/.

import (
	"math"
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
	return saturate(tb, testSim(benchSpecs(200), policy, cfg, false))
}

// testSim wires a sim over specs as Run does (streamed false) or as RunStream
// does over a SliceSource (streamed true), without a result collector. The
// caller runs or steps it, then releases it.
func testSim(specs []job.Spec, policy sched.Scheduler, cfg Config, streamed bool) *sim {
	s := newSim(policy, cfg, nil)
	if streamed {
		s.feedSource(SliceSource(specs))
	} else {
		s.feedSpecs(specs)
	}
	return s
}

// saturate runs the sim's first step — the t=0 arrivals, admission up to the
// cap, and the one round that fills the cluster.
func saturate(tb testing.TB, s *sim) *sim {
	tb.Helper()
	if err := s.drainArrivals(math.Inf(-1)); err != nil {
		tb.Fatal(err)
	}
	if err := s.step(); err != nil {
		tb.Fatal(err)
	}
	if s.now != 0 || s.usedSlots != s.cfg.Containers {
		tb.Fatalf("bench sim not saturated at t=0: t=%v, %d/%d containers busy", s.now, s.usedSlots, s.cfg.Containers)
	}
	return s
}

// newFreedSim is the freed1 regime's sim: the default testbed (120
// containers, 30-job admission cap) over benchSpecs, saturated, incremental
// rounds as every workload runs them. Streamed or materialised, 30 jobs run
// and 170 wait.
func newFreedSim(tb testing.TB, policy sched.Scheduler, streamed bool) *sim {
	tb.Helper()
	cfg := DefaultConfig()
	s := saturate(tb, testSim(benchSpecs(200), policy, cfg, streamed))
	if s.adm.Waiting() != 200-cfg.MaxRunningJobs || len(s.running) != cfg.MaxRunningJobs {
		tb.Fatalf("freed1 sim: %d waiting, %d running, want %d and %d",
			s.adm.Waiting(), len(s.running), 200-cfg.MaxRunningJobs, cfg.MaxRunningJobs)
	}
	return s
}

// freedRound is one step of the traffic the engine workloads consist of,
// counted on benchmark/'s inputs at seed 1: 81-98 % of schedule() calls
// execute a full round (the rest are saturated and skipped), the round sees
// 17-27 running jobs, enters with 1.2-2.3 containers free — one attempt just
// ended — holds 2-15 launch candidates of which it serves 1.0-1.2 before the
// containers run out, and launches 1.0-1.4 tasks; the running set changed
// since the previous executed round in 0.5 % (engine-cluster) to 27-40 %
// (engine-stream, engine-sharded) of them. Here: the earliest attempt ends as
// the run loop would end it, and the round relaunches onto its container. The
// attempt is made to fail, so its task goes back to the ready queue and the
// sim never drains: every round sees the same 30 jobs.
func freedRound(s *sim) {
	t, ev, _ := s.queue.Pop()
	s.busyIntegral += float64(s.usedSlots) * (t - s.now)
	s.now = t
	s.attempts[ev.attempt].success = false
	s.driver.MarkDirty()
	s.handleAttemptDone(ev.attempt)
	s.schedule()
}

// benchPolicies are the sweep policies of benchmark/, by the names the
// ScheduleRound benchmarks have always used.
var benchPolicies = []struct {
	name string
	mk   func(tb testing.TB) sched.Scheduler
}{
	{"LASMQ", func(tb testing.TB) sched.Scheduler {
		mq, err := core.New(core.DefaultConfig())
		if err != nil {
			tb.Fatal(err)
		}
		return mq
	}},
	{"Fair", func(testing.TB) sched.Scheduler { return sched.NewFair() }},
	{"LAS", func(testing.TB) sched.Scheduler { return sched.NewLAS() }},
	{"FIFO", func(testing.TB) sched.Scheduler { return sched.NewFIFO() }},
}

func BenchmarkScheduleRound(b *testing.B) {
	for _, tc := range benchPolicies {
		b.Run(tc.name, func(b *testing.B) {
			s := newBenchSim(b, tc.mk(b), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.schedule()
			}
		})
		b.Run(tc.name+"/freed1", func(b *testing.B) {
			s := newFreedSim(b, tc.mk(b), false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				freedRound(s)
			}
		})
	}
}
