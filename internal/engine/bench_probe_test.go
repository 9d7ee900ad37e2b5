package engine

// White-box benchmarks and gates for the telemetry probe's zero-overhead
// contract: a nil probe must leave the scheduling round allocation-free
// (`make check` enforces this via TestScheduleRoundNilProbeZeroAlloc), and
// an attached aggregating sink must cost only its counter updates.

import (
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

func benchLASMQ(tb testing.TB) sched.Scheduler {
	tb.Helper()
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return mq
}

// BenchmarkScheduleRoundProbed measures the steady-state scheduling round
// with no probe attached against the same round feeding each sink family:
// the mutex-guarded obs.Counters, the lock-free obs.Ring flight recorder,
// and the obs.Histograms distribution sink — the overhead a user pays for
// each flavor of live telemetry.
func BenchmarkScheduleRoundProbed(b *testing.B) {
	cases := []struct {
		name  string
		probe obs.Probe
	}{
		{"nil", nil},
		{"counters", obs.NewCounters()},
		{"ring", obs.NewRing(1 << 16)},
		{"histograms", obs.NewHistograms()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := newBenchSim(b, benchLASMQ(b), tc.probe)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.schedule()
			}
		})
	}
}

// TestScheduleRoundNilProbeZeroAlloc pins the nil-probe fast path: the
// telemetry layer's `if probe != nil` guards must compile away to nothing,
// so an un-probed scheduling round allocates exactly as before the layer
// existed — zero.
func TestScheduleRoundNilProbeZeroAlloc(t *testing.T) {
	s := newBenchSim(t, benchLASMQ(t), nil)
	if avg := testing.AllocsPerRun(100, s.schedule); avg != 0 {
		t.Fatalf("nil-probe scheduling round allocates %v allocs/op, want 0", avg)
	}

	// The same round in a streamed run whose admission cap binds: 30 jobs
	// run, 170 wait, and the round must neither walk nor pay for the backlog.
	cfg := DefaultConfig()
	cfg.FullReschedule = true
	st := testSim(benchSpecs(200), benchLASMQ(t), cfg, true)
	saturate(t, st)
	if st.adm.Waiting() != 200-cfg.MaxRunningJobs || len(st.running) != cfg.MaxRunningJobs {
		t.Fatalf("streamed bench sim: %d waiting, %d running, want %d and %d",
			st.adm.Waiting(), len(st.running), 200-cfg.MaxRunningJobs, cfg.MaxRunningJobs)
	}
	if avg := testing.AllocsPerRun(100, st.schedule); avg != 0 {
		t.Fatalf("streamed nil-probe scheduling round allocates %v allocs/op, want 0", avg)
	}

	// The round the workloads execute (see freedRound): an attempt ends, the
	// round relaunches onto its container. For every sweep policy, streamed
	// and materialised, it allocates nothing, and — the running set being the
	// same 30 jobs throughout — registers no view again.
	for _, tc := range benchPolicies {
		for _, streamed := range []bool{false, true} {
			s := newFreedSim(t, tc.mk(t), streamed)
			for i := 0; i < 200; i++ {
				freedRound(s) // grows the event queue, the attempt slab and the policy's scratch
			}
			rebuilds, attempts := s.viewRebuilds, s.attemptSlab.Recycled
			if avg := testing.AllocsPerRun(100, func() { freedRound(s) }); avg != 0 {
				t.Errorf("%s (streamed %v): freed1 round allocates %v allocs/op, want 0", tc.name, streamed, avg)
			}
			if s.viewRebuilds != rebuilds {
				t.Errorf("%s (streamed %v): %d view registrations over rounds that left the running set alone, want 0",
					tc.name, streamed, s.viewRebuilds-rebuilds)
			}
			if s.attemptSlab.Recycled == attempts {
				t.Errorf("%s (streamed %v): the freed1 rounds launched nothing", tc.name, streamed)
			}
		}
	}
}

// denseCounter is LAS_MQ with its dense calls counted: the embedded policy
// brings every map and dense form along, so substrate.Driver drives it
// densely, and the overrides show that it did.
type denseCounter struct {
	*core.LASMQ
	assigns, observes, served int
	broken                    error // the first answer that broke the sparse contract
}

func (c *denseCounter) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	c.assigns++
	c.LASMQ.AssignDense(now, capacity, jobs, slots, changed, freed, shares)
	c.served += len(shares.Served())
	if err := schedtest.AnswerError(len(jobs), shares); err != nil && c.broken == nil {
		c.broken = err
	}
}

func (c *denseCounter) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	c.observes++
	c.LASMQ.ObserveDense(now, jobs, slots, changed, freed)
}

// TestDenseRoundZeroAlloc pins the dense round contract on the engine: a
// steady executed round (views with slots, LAS_MQ's sparse answer read by
// view index, dense quantizer rows) and a steady observation round allocate
// nothing, both reach the policy through its dense forms, and every answer
// serves some views and keeps the sparse contract.
func TestDenseRoundZeroAlloc(t *testing.T) {
	mq := &denseCounter{LASMQ: benchLASMQ(t).(*core.LASMQ)}
	s := newBenchSim(t, mq, nil)
	observe := func() {
		s.collectViews()
		s.driver.Observe(s.now, &s.vs)
	}
	mq.assigns, mq.observes = 0, 0
	if avg := testing.AllocsPerRun(100, func() { s.schedule(); observe() }); avg != 0 {
		t.Fatalf("dense scheduling and observation rounds allocate %v allocs/op, want 0", avg)
	}
	if mq.assigns == 0 || mq.observes == 0 || mq.served == 0 || mq.broken != nil {
		t.Fatalf("the rounds reached the policy through AssignDense %d times and ObserveDense %d times, serving %d views (%v); want > 0, > 0, > 0 and no error",
			mq.assigns, mq.observes, mq.served, mq.broken)
	}

	// The same pair in the freed1 regime, incremental rounds on: an
	// observation round between two executed rounds allocates nothing and
	// registers no view again.
	mq = &denseCounter{LASMQ: benchLASMQ(t).(*core.LASMQ)}
	s = newFreedSim(t, mq, true)
	for i := 0; i < 200; i++ {
		freedRound(s)
		observe()
	}
	rebuilds := s.viewRebuilds
	mq.assigns, mq.observes = 0, 0
	if avg := testing.AllocsPerRun(100, func() { freedRound(s); observe() }); avg != 0 {
		t.Fatalf("dense freed1 and observation rounds allocate %v allocs/op, want 0", avg)
	}
	if mq.assigns == 0 || mq.observes == 0 || s.viewRebuilds != rebuilds || mq.served == 0 || mq.broken != nil {
		t.Fatalf("freed1: AssignDense %d times, ObserveDense %d times, %d view registrations, %d views served (%v); want > 0, > 0, 0, > 0 and no error",
			mq.assigns, mq.observes, s.viewRebuilds-rebuilds, mq.served, mq.broken)
	}
}
