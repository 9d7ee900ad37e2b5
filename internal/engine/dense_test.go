package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// TestDenseMatchesMapOnly is the dense round contract's gate on the engine: a
// policy driven through its dense forms and the same policy with those forms
// hidden (schedtest.MapOnly, so substrate.Driver drives its map forms through
// the map→dense adapter) must produce DeepEqual results and byte-identical
// JSONL probe streams — every round executed, skipped or observed at the same
// instant, every queue event in the same order — over the incremental
// differential's whole matrix: every policy and wrapper × 6 noise
// configurations × 3 seeds. For the policies whose map forms are MapForms
// over their dense forms, this holds job-ID-issued slots against the
// engine's; TestProbeStreamPinned holds both against the map implementations
// they replaced.
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
// its own driver, view registry and policy, chaos on — for the sharded
// suite's policies and the stateful ones whose map forms issue their own slots.
func TestDenseMatchesMapOnlySharded(t *testing.T) {
	policies := diffPolicies(t)
	specs := diffWorkload(7, 240)
	for _, name := range append(slices.Clone(shardPolicyNames), "SRPT", "Adaptive", "Blend") {
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

// TestBlendOverFIFOMatchesMapOnly: a blend of FIFO and LAS_MQ at theta = 0.5
// drives FIFO's slotted queue through the blend's slots, while the engine
// replays skipped rounds through the blend's ObserveDense, which only LAS_MQ
// observes: a slot freed before an observed round never reaches FIFO in a
// log, and FIFO must find the departure by itself. The run must equal the
// blend over FIFO's slotless map forms bit for bit — results and probe
// streams — under chaos (failures, stragglers, a binding admission cap),
// with speculation on and, so that a completion can leave no ready task and
// the next round be observed, off on a smaller cluster, on three seeds.
func TestBlendOverFIFOMatchesMapOnly(t *testing.T) {
	blend := func(fifo sched.Scheduler) sched.Scheduler {
		mq, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := sched.NewBlend(fifo, mq, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	unlogged := 0 // completions followed by an observed round before an executed one
	for _, speculation := range []bool{true, false} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := streamChaosConfig(seed)
			if !speculation {
				cfg.Speculation, cfg.Containers = false, 6
			}
			specs := diffWorkload(seed, 60)
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
			slotted, slottedLog := run(blend(sched.NewFIFO()))
			mapped, mapLog := run(blend(schedtest.MapOnly(sched.NewFIFO())))
			if !reflect.DeepEqual(slotted, mapped) {
				t.Fatalf("speculation %v, seed %d: result differs between FIFO's queue and its slotless sort in the blend",
					speculation, seed)
			}
			if !bytes.Equal(slottedLog, mapLog) {
				t.Fatalf("speculation %v, seed %d: probe stream differs between FIFO's queue and its slotless sort in the blend",
					speculation, seed)
			}
			done := false
			for _, line := range bytes.Split(slottedLog, []byte("\n")) {
				switch {
				case bytes.Contains(line, []byte(`"job-done"`)):
					done = true
				case bytes.Contains(line, []byte(`"round-exec"`)):
					done = false
				case done && bytes.Contains(line, []byte(`"observed":true`)):
					unlogged++
					done = false
				}
			}
		}
	}
	if unlogged < 5 {
		t.Fatalf("%d completions were followed by an observed round, want at least 5", unlogged)
	}
}
