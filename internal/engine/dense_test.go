package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lasmq/internal/engine"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// TestDenseMatchesMapOnly is the dense round contract's gate on the engine: a
// policy driven through its dense forms and the same policy with those forms
// hidden (schedtest.MapOnly, so substrate.Driver takes the maps) must produce
// DeepEqual results and byte-identical JSONL probe streams — every round
// executed, skipped or observed at the same instant, every queue event in the
// same order — over the incremental differential's whole matrix: 9 policies ×
// 6 noise configurations × 3 seeds. For Adaptive and Blend, which have no
// dense forms, both sides take the maps and the comparison checks the wrapper.
func TestDenseMatchesMapOnly(t *testing.T) {
	configs := diffConfigs()
	for pname, mk := range diffPolicies(t) {
		for cname, tweak := range configs {
			t.Run(fmt.Sprintf("%s/%s", pname, cname), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := engine.DefaultConfig()
					cfg.Containers = 20
					cfg.MaxRunningJobs = 0
					cfg.Seed = seed
					tweak(&cfg)
					specs := diffWorkload(seed, 24)

					run := func(policy sched.Scheduler) (*engine.Result, []byte) {
						var log bytes.Buffer
						sink := obs.NewJSONL(&log)
						c := cfg
						c.Probe = sink
						res, err := engine.Run(specs, policy, c)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if err := sink.Flush(); err != nil {
							t.Fatal(err)
						}
						return res, log.Bytes()
					}
					dense, denseLog := run(mk())
					mapped, mapLog := run(schedtest.MapOnly(mk()))
					if !reflect.DeepEqual(dense, mapped) {
						t.Fatalf("seed %d: result differs between the dense and the map forms\n dense: %+v\n   map: %+v", seed, dense, mapped)
					}
					if !bytes.Equal(denseLog, mapLog) {
						t.Fatalf("seed %d: probe stream differs between the dense and the map forms (%d vs %d bytes)",
							seed, len(denseLog), len(mapLog))
					}
				}
			})
		}
	}
}

// TestDenseMatchesMapOnlySharded is the same gate on RunSharded: streamed
// runs recycle job records and slots as jobs complete, four shards each with
// its own driver, view registry and policy, chaos on.
func TestDenseMatchesMapOnlySharded(t *testing.T) {
	policies := diffPolicies(t)
	specs := diffWorkload(7, 240)
	for _, name := range shardPolicyNames {
		run := func(wrap func(sched.Scheduler) sched.Scheduler) (*engine.StreamResult, []byte) {
			var log bytes.Buffer
			sink := obs.NewJSONL(&log)
			cfg := engine.ShardedConfig{Config: streamChaosConfig(7), Shards: 4, Workers: 1}
			cfg.Probe = sink
			res, err := engine.RunSharded(
				func(shard int) (engine.Source, error) { return shardSource(specs, shard, 4), nil },
				func() (sched.Scheduler, error) { return wrap(policies[name]()), nil },
				cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			return res, log.Bytes()
		}
		dense, denseLog := run(func(p sched.Scheduler) sched.Scheduler { return p })
		mapped, mapLog := run(schedtest.MapOnly)
		if !reflect.DeepEqual(dense, mapped) {
			t.Errorf("%s: sharded result differs between the dense and the map forms\n dense: %+v\n   map: %+v", name, dense, mapped)
		}
		if !bytes.Equal(denseLog, mapLog) {
			t.Errorf("%s: sharded probe stream differs between the dense and the map forms", name)
		}
		if dense.Slab.Recycled == 0 {
			t.Errorf("%s: no job record was recycled, so no slot was either", name)
		}
	}
}
