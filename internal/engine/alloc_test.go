package engine_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
	"lasmq/internal/trace"
	"lasmq/internal/workload"
)

// scaleTierMallocs is the number of heap objects one streamed engine run
// over the staged Facebook source allocates at the given length, sources
// included, configured as the engine scale tiers are: 20-container
// sub-clusters, the 30-job admission cap, light chaos with speculation.
// shards == 0 runs engine.RunStream; otherwise engine.RunSharded on one
// worker (Workers never changes what a shard does, and with one worker the
// number of recycled arenas in play does not depend on goroutine scheduling).
func scaleTierMallocs(t *testing.T, policy string, jobs, shards int) uint64 {
	t.Helper()
	k := max(shards, 1)
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = jobs
	tcfg.Seed = 1
	tcfg.Capacity = float64(20 * k)
	cfg := engine.DefaultConfig()
	cfg.Containers = 20 * k
	cfg.MaxRunningJobs = 30
	cfg.FailureProb = 0.01
	cfg.StragglerProb = 0.02
	cfg.StragglerFactor = 3
	cfg.Speculation = true
	cfg.Seed = 1
	mq := core.DefaultConfig()
	mq.FirstThreshold = 1
	newPolicy := func() (sched.Scheduler, error) { return core.NewPolicy(policy, mq) }
	newSource := func(shard int) (engine.Source, error) {
		flat, err := trace.NewFacebookSource(tcfg)
		if err != nil {
			return nil, err
		}
		return workload.NewStageSource(substrate.Strided[substrate.JobSpec](flat, shard, k), workload.DefaultStageConfig())
	}

	run := func() (*engine.StreamResult, error) {
		if shards > 0 {
			return engine.RunSharded(newSource, newPolicy, engine.ShardedConfig{Config: cfg, Shards: shards, Workers: 1})
		}
		src, err := newSource(0)
		if err != nil {
			return nil, err
		}
		p, err := newPolicy()
		if err != nil {
			return nil, err
		}
		return engine.RunStream(src, p, cfg, nil)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != jobs {
		t.Fatalf("completed %d of %d jobs", res.Jobs, jobs)
	}
	return after.Mallocs - before.Mallocs
}

// TestStreamMarginalAllocs is the allocation gate of the streamed engine
// paths (see the fluid test of the same name for the method): the objects a
// run at 2N jobs allocates beyond a run at N, per extra job, after a warm-up
// has grown the pooled arena and its job records. The limit is the looser
// of the two because a pooled record regrows its slabs when it meets a job
// with more tasks than any it has held, and the trace at N jobs is not a
// prefix of the one at 2N (sizes are renormalised over the whole trace), so
// either run may regrow a few hundred records the other does not.
func TestStreamMarginalAllocs(t *testing.T) {
	const (
		n     = 3000
		limit = 0.25
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name   string
		shards int
	}{{"RunStream", 0}, {"RunSharded", 4}} {
		for _, policy := range []string{"FIFO", "FAIR", "LAS", "LAS_MQ"} {
			scaleTierMallocs(t, policy, 2*n, tc.shards) // warm-up: grows the arena to the longer trace
			small := scaleTierMallocs(t, policy, n, tc.shards)
			large := scaleTierMallocs(t, policy, 2*n, tc.shards)
			perJob := (float64(large) - float64(small)) / n
			t.Logf("%s %s: %d objects at %d jobs, %d at %d: %.4f per extra job", tc.name, policy, small, n, large, 2*n, perJob)
			if perJob > limit {
				t.Errorf("%s %s: %.4f objects per extra job, limit %v", tc.name, policy, perJob, limit)
			}
		}
	}
}

// TestArenaSurvivesGC: a run after two collections still finds the arena an
// earlier run returned — the free list keeps it where a sync.Pool drops it —
// and reports the reuse through ArenaReuse.
func TestArenaSurvivesGC(t *testing.T) {
	specs := diffWorkload(1, 20)
	run := func() int64 {
		counters := obs.NewCounters()
		cfg := streamChaosConfig(1)
		cfg.Probe = counters
		if _, err := engine.Run(specs, sched.NewFIFO(), cfg); err != nil {
			t.Fatal(err)
		}
		return counters.Snapshot().ArenaReuses
	}
	run()
	runtime.GC()
	runtime.GC()
	if reuses := run(); reuses != 1 {
		t.Fatalf("a run after two collections reused %d arenas, want 1", reuses)
	}
}
