package fluid_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
	"lasmq/internal/trace"
)

// The streaming/sharding differential suite pins the tentpole's determinism
// contracts on the Table-I-style heavy-tailed mix (the Fig. 7a generator at
// reduced length), across seeds and all four policies:
//
//   - collector ≡ stream: Run is RunStream plus a collector, so the Result it
//     assembles holds, at each trace index, exactly the JobResult the streamed
//     run's callback delivered for that job, and the same aggregates;
//   - Shards=1 ≡ unsharded: a one-shard sharded run is byte-identical to a
//     plain streaming run;
//   - Workers never affect results: Workers=1 and Workers=8 at Shards=8 are
//     byte-identical (workers write disjoint slots; the merge folds in shard
//     index order).

// diffPolicies returns fresh constructors for the four policies with the
// trace-simulation LAS_MQ configuration.
func diffPolicies(t testing.TB) map[string]func() (sched.Scheduler, error) {
	t.Helper()
	mq := func() (sched.Scheduler, error) {
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 1
		cfg.StageAware = false
		cfg.OrderByDemand = false
		return core.New(cfg)
	}
	return map[string]func() (sched.Scheduler, error){
		"LAS_MQ": mq,
		"LAS":    func() (sched.Scheduler, error) { return sched.NewLAS(), nil },
		"FAIR":   func() (sched.Scheduler, error) { return sched.NewFair(), nil },
		"FIFO":   func() (sched.Scheduler, error) { return sched.NewFIFO(), nil },
	}
}

func diffTrace(t testing.TB, seed int64) ([]fluid.JobSpec, trace.FacebookConfig) {
	t.Helper()
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = 3000
	tcfg.Seed = seed
	specs, err := trace.Facebook(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return specs, tcfg
}

func TestRunStreamMatchesRun(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		specs, tcfg := diffTrace(t, seed)
		fcfg := fluid.DefaultConfig()
		fcfg.Capacity = tcfg.Capacity
		for name, newPolicy := range diffPolicies(t) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				p1, err := newPolicy()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := fluid.Run(specs, p1, fcfg)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := newPolicy()
				if err != nil {
					t.Fatal(err)
				}
				byID := make(map[int]fluid.JobResult, len(specs))
				sr, err := fluid.RunStream(fluid.SliceSource(specs), p2, fcfg, func(jr fluid.JobResult) {
					byID[jr.ID] = jr
				})
				if err != nil {
					t.Fatal(err)
				}
				if sr.Jobs != len(ref.Jobs) {
					t.Fatalf("streamed %d jobs, materialized %d", sr.Jobs, len(ref.Jobs))
				}
				responses, slowdowns := ref.ResponseTimes(), ref.Slowdowns()
				for i := range ref.Jobs {
					if ref.Jobs[i].ID != specs[i].ID {
						t.Fatalf("Jobs[%d] is job %d, the trace holds job %d there", i, ref.Jobs[i].ID, specs[i].ID)
					}
					got, ok := byID[ref.Jobs[i].ID]
					if !ok {
						t.Fatalf("job %d missing from stream", ref.Jobs[i].ID)
					}
					if responses[i] != got.ResponseTime || slowdowns[i] != got.Slowdown {
						t.Fatalf("job %d: statistics not folded in trace order", got.ID)
					}
					if got != ref.Jobs[i] {
						t.Fatalf("job %d differs:\n stream: %+v\n    run: %+v",
							ref.Jobs[i].ID, got, ref.Jobs[i])
					}
				}
				if sr.Makespan != ref.Makespan {
					t.Errorf("makespan: stream %v, run %v", sr.Makespan, ref.Makespan)
				}
				if sr.Utilization != ref.Utilization {
					t.Errorf("utilization: stream %v, run %v", sr.Utilization, ref.Utilization)
				}
				if sr.Rounds != ref.Rounds {
					t.Errorf("rounds: stream %d, run %d", sr.Rounds, ref.Rounds)
				}
				if sr.Slab.Peak <= 0 || sr.Slab.Peak >= len(specs) {
					t.Errorf("slab peak %d not in (0, %d): free list not recycling",
						sr.Slab.Peak, len(specs))
				}
			})
		}
	}
}

func TestShardedOneShardMatchesStream(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		specs, tcfg := diffTrace(t, seed)
		fcfg := fluid.DefaultConfig()
		fcfg.Capacity = tcfg.Capacity
		for name, newPolicy := range diffPolicies(t) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				p, err := newPolicy()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := fluid.RunStream(fluid.SliceSource(specs), p, fcfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				scfg := fluid.ShardedConfig{Config: fcfg, Shards: 1, Workers: 1}
				got, err := fluid.RunSharded(
					func(int) (fluid.Source, error) { return fluid.SliceSource(specs), nil },
					newPolicy, scfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("one-shard sharded run differs from streaming run:\nsharded: %+v\n stream: %+v", got, ref)
				}
			})
		}
	}
}

func TestShardedWorkerCountDoesNotAffectResults(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		_, tcfg := diffTrace(t, seed)
		const shards = 8
		tcfg.Capacity = 20 * shards // per-shard capacity 20, load 0.9 each
		fcfg := fluid.DefaultConfig()
		fcfg.Capacity = tcfg.Capacity
		newSource := func(shard int) (fluid.Source, error) {
			src, err := trace.NewFacebookSource(tcfg)
			if err != nil {
				return nil, err
			}
			return fluid.Strided(src, shard, shards), nil
		}
		for name, newPolicy := range diffPolicies(t) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				var runs [2]*fluid.StreamResult
				for i, workers := range []int{1, 8} {
					scfg := fluid.ShardedConfig{Config: fcfg, Shards: shards, Workers: workers}
					res, err := fluid.RunSharded(newSource, newPolicy, scfg)
					if err != nil {
						t.Fatal(err)
					}
					runs[i] = res
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Fatalf("worker count changed results:\nworkers=1: %+v\nworkers=8: %+v", runs[0], runs[1])
				}
			})
		}
	}
}

// TestShardedImbalancedWorkStealing pins the Workers contract on the
// work-stealing pool when shard loads are wildly uneven: shard 0 carries
// ~90% of the trace while the other seven split the rest, so workers that
// finish light shards go idle early and claim the queued ones off the
// shared counter. Worker count (and hence claim order) must still never
// affect results.
func TestShardedImbalancedWorkStealing(t *testing.T) {
	specs, _ := diffTrace(t, 5)
	const shards = 8
	parts := make([][]fluid.JobSpec, shards)
	for i, s := range specs {
		shard := 0
		if i%10 == 0 {
			shard = 1 + (i/10)%(shards-1)
		}
		parts[shard] = append(parts[shard], s)
	}
	newSource := func(shard int) (fluid.Source, error) {
		return fluid.SliceSource(parts[shard]), nil
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = 20 * shards
	for name, newPolicy := range diffPolicies(t) {
		t.Run(name, func(t *testing.T) {
			var runs []*fluid.StreamResult
			for _, workers := range []int{1, 3, 8} {
				scfg := fluid.ShardedConfig{Config: fcfg, Shards: shards, Workers: workers}
				res, err := fluid.RunSharded(newSource, newPolicy, scfg)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, res)
			}
			for i := 1; i < len(runs); i++ {
				if !reflect.DeepEqual(runs[0], runs[i]) {
					t.Fatalf("worker count changed results under imbalance:\nworkers=1: %+v\nother: %+v",
						runs[0], runs[i])
				}
			}
		})
	}
}

// TestShardedProbeCountersMatchFold checks that the K-shard fold equals the
// sum of its shards: a Counters sink attached to a K = 4 run sees every
// shard's events, and its global totals match the folded StreamResult's jobs
// and executed rounds. Attaching the probe does not change results.
func TestShardedProbeCountersMatchFold(t *testing.T) {
	specs, _ := diffTrace(t, 1)
	const shards = 4
	newSource := func(shard int) (fluid.Source, error) {
		return fluid.Strided(fluid.SliceSource(specs), shard, shards), nil
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = 20 * shards
	for name, newPolicy := range diffPolicies(t) {
		t.Run(name, func(t *testing.T) {
			bare, err := fluid.RunSharded(newSource, newPolicy,
				fluid.ShardedConfig{Config: fcfg, Shards: shards, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			c := obs.NewCounters()
			pcfg := fcfg
			pcfg.Probe = c
			probed, err := fluid.RunSharded(newSource, newPolicy,
				fluid.ShardedConfig{Config: pcfg, Shards: shards, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bare, probed) {
				t.Fatalf("probe perturbed sharded results:\n want %+v\n  got %+v", bare, probed)
			}
			s := c.Snapshot()
			if probed.Jobs != len(specs) || s.JobsCompleted != int64(probed.Jobs) {
				t.Errorf("JobsCompleted/Jobs: global sink %d, folded result %d of %d jobs",
					s.JobsCompleted, probed.Jobs, len(specs))
			}
			if probed.Rounds == 0 || s.RoundsExecuted != int64(probed.Rounds) {
				t.Errorf("RoundsExecuted/Rounds: global sink %d, folded result %d", s.RoundsExecuted, probed.Rounds)
			}
		})
	}
}

// TestRunStreamRejectsUnsortedSource pins the streaming contract: an
// out-of-order arrival is an error, not a silent misordering.
func TestRunStreamRejectsUnsortedSource(t *testing.T) {
	specs := []fluid.JobSpec{
		{ID: 1, Arrival: 5, Size: 1, Width: 1, Priority: 1},
		{ID: 2, Arrival: 1, Size: 1, Width: 1, Priority: 1},
	}
	cfg := fluid.Config{Capacity: 1, TaskDuration: 1}
	if _, err := fluid.RunStream(fluid.SliceSource(specs), sched.NewFair(), cfg, nil); err == nil {
		t.Fatal("unsorted source accepted")
	}
}

// TestStridedPartition pins that striding partitions a stream exactly: the
// shards' unions rebuild the sequence with no duplicates or gaps.
func TestStridedPartition(t *testing.T) {
	specs, _ := diffTrace(t, 1)
	const shards = 4
	seen := make(map[int]int)
	for shard := 0; shard < shards; shard++ {
		src := fluid.Strided(fluid.SliceSource(specs), shard, shards)
		for i := 0; ; i++ {
			spec, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			seen[spec.ID]++
			if want := specs[shard+i*shards].ID; spec.ID != want {
				t.Fatalf("shard %d item %d: got job %d, want %d", shard, i, spec.ID, want)
			}
		}
	}
	if len(seen) != len(specs) {
		t.Fatalf("shards cover %d of %d jobs", len(seen), len(specs))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("job %d yielded %d times", id, n)
		}
	}
}

// densePolicies is pinnedPolicies by name: every policy and wrapper.
func densePolicies(t *testing.T) map[string]func() (sched.Scheduler, error) {
	out := make(map[string]func() (sched.Scheduler, error))
	for _, p := range pinnedPolicies(t) {
		out[p.name] = p.new
	}
	return out
}

// TestDenseMatchesMapOnly is the dense round contract's gate on the fluid
// simulator: a policy driven through its dense forms and the same policy with
// those forms hidden (schedtest.MapOnly, so substrate.Driver drives its map
// forms through the map→dense adapter) must produce DeepEqual results and
// byte-identical JSONL probe streams, over 3 seeds × every policy and
// wrapper. Jobs here complete, and their slots are reissued, thousands of
// times a run.
func TestDenseMatchesMapOnly(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		specs, tcfg := diffTrace(t, seed)
		for name, newPolicy := range densePolicies(t) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				run := func(wrap func(sched.Scheduler) sched.Scheduler) (*fluid.Result, []byte) {
					p, err := newPolicy()
					if err != nil {
						t.Fatal(err)
					}
					var log bytes.Buffer
					sink := obs.NewJSONL(&log)
					fcfg := fluid.DefaultConfig()
					fcfg.Capacity = tcfg.Capacity
					fcfg.Probe = sink
					res, err := fluid.Run(specs, wrap(p), fcfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := sink.Flush(); err != nil {
						t.Fatal(err)
					}
					return res, log.Bytes()
				}
				dense, denseLog := run(func(p sched.Scheduler) sched.Scheduler { return p })
				mapped, mapLog := run(schedtest.MapOnly)
				if !reflect.DeepEqual(dense, mapped) {
					t.Fatal("result differs between the dense and the map forms")
				}
				if !bytes.Equal(denseLog, mapLog) {
					t.Fatalf("probe stream differs between the dense and the map forms (%d vs %d bytes)", len(denseLog), len(mapLog))
				}
			})
		}
	}
}
