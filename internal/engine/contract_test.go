package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// TestSparseAnswerContract: every answer substrate.Driver.Shares computes for
// the engine keeps the sparse contract — the served list strictly ascending
// and naming exactly the views with a nonzero share, the column zero
// everywhere else — for every core.PolicyNames policy, Gittins, the adaptive
// wrapper, a blend at theta = 0.5, the queue recorder and LAS_MQ behind the
// map adapter, on the differential workload with stragglers and speculation;
// and watching the answers changes no result.
func TestSparseAnswerContract(t *testing.T) {
	diff := diffPolicies(t)
	policies := map[string]func() sched.Scheduler{
		"Gittins":       diff["Gittins"],
		"Adaptive":      diff["Adaptive"],
		"QueueRecorder": diff["QueueRecorder"],
		"Blend-0.5": func() sched.Scheduler {
			mq, err := core.New(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			b, err := sched.NewBlend(mq, sched.NewFair(), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"MapOnly-LAS_MQ": func() sched.Scheduler { return schedtest.MapOnly(diff["LASMQ-stageaware"]()) },
	}
	for _, name := range core.PolicyNames() {
		policies[name] = func() sched.Scheduler {
			p, err := core.NewPolicy(name, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	cfg := engine.DefaultConfig()
	cfg.Containers = 20
	cfg.MaxRunningJobs = 0
	cfg.Seed = 1
	diffConfigs()["speculation"](&cfg)
	specs := diffWorkload(1, 24)
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			rounds, served := 0, 0
			var broken error
			watched := schedtest.Watch(mk(), func(jobs []sched.JobView, shares *sched.Shares) {
				rounds++
				served += len(shares.Served())
				if err := schedtest.AnswerError(len(jobs), shares); err != nil && broken == nil {
					broken = fmt.Errorf("round %d: %v", rounds, err)
				}
			})
			got, err := engine.Run(specs, watched, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if broken != nil {
				t.Fatal(broken)
			}
			want, err := engine.Run(specs, mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("watching the answers changed the run")
			}
			if rounds == 0 || served == 0 {
				t.Fatalf("watched %d answers serving %d views", rounds, served)
			}
		})
	}
}
