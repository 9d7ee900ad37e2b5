package engine

import (
	"fmt"
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/sched"
	"lasmq/internal/workload"
)

// TestAttemptRecyclingByteIdentical pins the free-list contract: recycling
// ended attempts' slab slots must not change any result. It runs the Table-I
// mix — including a failures+stragglers+speculation configuration, whose kill
// paths and speculation scans are exactly where a stale recycled slot would
// leak into results — with recycling on and off and requires deep equality.
func TestAttemptRecyclingByteIdentical(t *testing.T) {
	defer func(orig bool) { attemptRecycling = orig }(attemptRecycling)

	configs := map[string]func() Config{
		"default": DefaultConfig,
		"chaos": func() Config {
			cfg := DefaultConfig()
			cfg.FailureProb = 0.1
			cfg.StragglerProb = 0.1
			cfg.StragglerFactor = 4
			cfg.Speculation = true
			cfg.Seed = 7
			return cfg
		},
	}
	for _, seed := range []int64{1, 2, 3} {
		wcfg := workload.DefaultConfig()
		wcfg.Seed = seed
		specs, err := workload.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, mkCfg := range configs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				var runs [2]*Result
				for i, recycle := range []bool{false, true} {
					attemptRecycling = recycle
					mq, err := core.New(core.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(specs, mq, mkCfg())
					if err != nil {
						t.Fatal(err)
					}
					runs[i] = res
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Fatal("attempt recycling changed results")
				}
			})
		}
	}
}

// TestAttemptRecyclingBoundsSlab pins the memory property the free list
// exists for: with recycling, the attempt slab's length stays far below the
// total number of attempts launched (it tracks peak in-flight attempts).
func TestAttemptRecyclingBoundsSlab(t *testing.T) {
	if !attemptRecycling {
		t.Skip("recycling disabled")
	}
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 1
	specs, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	s := testSim(specs, mq, cfg, false)
	defer s.release()
	if err := s.run(); err != nil {
		t.Fatal(err)
	}
	launched := len(s.attempts) + s.attemptSlab.Recycled
	if launched < 1000 {
		t.Fatalf("workload too small to exercise recycling: %d attempts", launched)
	}
	if len(s.attempts) != s.attemptSlab.Peak {
		t.Errorf("slab length %d != peak in-flight %d", len(s.attempts), s.attemptSlab.Peak)
	}
	if s.attemptSlab.Peak*4 > s.attemptSlab.Recycled {
		t.Errorf("peak %d not far below recycled %d: slab not bounded by in-flight attempts",
			s.attemptSlab.Peak, s.attemptSlab.Recycled)
	}
	if s.attemptSlab.Live != 0 {
		t.Errorf("%d attempts still live after a clean run", s.attemptSlab.Live)
	}
}

// TestRecordsBoundedByAdmission pins where task state is built: at
// admission, not at arrival. N jobs arrive at t = 0 behind an admission cap
// of k with no speculation (so no completed job waits for a killed copy to
// drain), and at most k task-state records are ever live — for RunStream, by
// its reported pool stats, and for Run, by the pool's own — however deep the
// backlog. Built at arrival, the peak would read N.
func TestRecordsBoundedByAdmission(t *testing.T) {
	const k = 4
	cfg := DefaultConfig()
	cfg.MaxRunningJobs = k
	for _, n := range []int{50, 500} {
		specs := benchSpecs(n)
		res, err := RunStream(SliceSource(specs), sched.NewFair(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Jobs != n || res.Slab.Peak > k {
			t.Errorf("RunStream, %d jobs: %d completed, record peak %d, want %d and <= %d", n, res.Jobs, res.Slab.Peak, n, k)
		}

		s := testSim(specs, sched.NewFair(), cfg, false)
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		if st := s.records.Stats(); st.Peak > k || st.Live != 0 {
			t.Errorf("Run, %d jobs: record peak %d, %d live at exit, want <= %d and 0", n, st.Peak, st.Live, k)
		}
		s.release()
	}
}
