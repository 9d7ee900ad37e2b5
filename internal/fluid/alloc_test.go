package fluid_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"lasmq/internal/fluid"
	"lasmq/internal/trace"
)

// streamMallocs is the number of heap objects one fluid.RunStream over the
// Facebook source at the given length allocates, source construction
// included.
func streamMallocs(t *testing.T, policy string, jobs int) uint64 {
	t.Helper()
	newPolicy := diffPolicies(t)[policy]
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = jobs
	tcfg.Seed = 1
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	src, err := trace.NewFacebookSource(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPolicy()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fluid.RunStream(src, p, fcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Jobs != jobs {
		t.Fatalf("completed %d of %d jobs", res.Jobs, jobs)
	}
	return after.Mallocs - before.Mallocs
}

// TestStreamMarginalAllocs is the allocation gate of the streamed path: what
// a run allocates may depend on the run (arena, pool chunks, policy scratch),
// never on how many jobs stream through it. Fixed costs cancel in the
// difference between a run at 2N jobs and one at N, so the gate is on the
// marginal objects per job — a per-run cost cannot hide a per-job one, and a
// per-job one cannot hide behind a long trace's small average. The collector
// is off and the test holds one P for the measurement (as
// testing.AllocsPerRun does) so that the pooled arena is certain to survive
// from the warm-up into both measured runs: sync.Pool drops its contents
// across collections, and an arena parked in one P's private slot is not
// found from another.
func TestStreamMarginalAllocs(t *testing.T) {
	const (
		n     = 10000
		limit = 0.02
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, policy := range []string{"FIFO", "FAIR", "LAS", "LAS_MQ"} {
		streamMallocs(t, policy, 2*n) // warm-up: grows the arena to the longer trace
		small := streamMallocs(t, policy, n)
		large := streamMallocs(t, policy, 2*n)
		perJob := (float64(large) - float64(small)) / n
		t.Logf("%s: %d objects at %d jobs, %d at %d: %.4f per extra job", policy, small, n, large, 2*n, perJob)
		if perJob > limit {
			t.Errorf("%s: %.4f objects per extra job, limit %v", policy, perJob, limit)
		}
	}
}
