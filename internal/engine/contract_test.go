package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// TestSparseAnswerContract: every answer substrate.Driver.Shares computes for
// the engine keeps the sparse contract — the served list strictly ascending
// and naming exactly the views with a nonzero share, the column zero
// everywhere else — for every core.PolicyNames policy, Gittins, the adaptive
// wrapper, a blend at theta = 0.5 and LAS_MQ behind the map adapter, on the differential workload with stragglers and speculation;
// and watching the answers changes no result.
func TestSparseAnswerContract(t *testing.T) {
	diff := diffPolicies(t)
	policies := map[string]func() sched.Scheduler{
		"Gittins":  diff["Gittins"],
		"Adaptive": diff["Adaptive"],
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
			watched := schedtest.Watch(mk(), func(_ float64, jobs []sched.JobView, shares *sched.Shares) {
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

// literalInput is one engine input the literal policies are held against.
type literalInput struct {
	name   string
	specs  []job.Spec
	cfg    engine.Config
	stream bool
}

// literalInputs are the engine's pinned inputs: TestRunResultPinned's
// (diffWorkload's seeds 1-3 under every noise configuration, orderSpecs with
// and without chaos) and TestLaunchOrderPinned's (orderSpecs under a tight and
// a wide admission cap, through Run and RunStream).
func literalInputs() []literalInput {
	var inputs []literalInput
	configs := diffConfigs()
	for seed := int64(1); seed <= 3; seed++ {
		for cname, tweak := range configs {
			cfg := engine.DefaultConfig()
			cfg.Containers = 20
			cfg.MaxRunningJobs = 0
			cfg.Seed = seed
			tweak(&cfg)
			inputs = append(inputs, literalInput{fmt.Sprintf("diff/seed%d/%s", seed, cname), diffWorkload(seed, 40), cfg, false})
		}
	}
	chaos := func(cfg engine.Config) engine.Config {
		cfg.FailureProb = 0.1
		cfg.StragglerProb = 0.2
		cfg.StragglerFactor = 3
		cfg.Speculation = true
		return cfg
	}
	specs := orderSpecs(60)
	order := engine.DefaultConfig()
	order.Containers, order.MaxRunningJobs, order.Seed = 9, 6, 5
	wide := chaos(order)
	wide.MaxRunningJobs = 14
	return append(inputs,
		literalInput{"order/chaos=false", specs, order, false},
		literalInput{"order/chaos=true", specs, chaos(order), false},
		literalInput{"launch/tight/stream", arrivalSorted(specs), chaos(order), true},
		literalInput{"launch/wide/run", specs, wide, false},
		literalInput{"launch/wide/stream", arrivalSorted(specs), wide, true},
	)
}

// run runs the input under p, through Run or RunStream, and returns what the
// run reports: the Result, or the StreamResult and every streamed JobResult.
func (in literalInput) run(p sched.Scheduler) (any, error) {
	if !in.stream {
		return engine.Run(in.specs, p, in.cfg)
	}
	var jobs []engine.JobResult
	res, err := engine.RunStream(engine.SliceSource(in.specs), p, in.cfg, func(j engine.JobResult) { jobs = append(jobs, j) })
	return []any{res, jobs}, err
}

// TestFIFOMatchesLiteral holds every round of FIFO on the engine's pinned
// inputs (literalInputs) against schedtest.LiteralFIFO, bit for bit: FIFO's
// queue, kept from the change log and served from its head, must answer what
// a sort of every view would.
func TestFIFOMatchesLiteral(t *testing.T) {
	for _, in := range literalInputs() {
		t.Run(in.name, func(t *testing.T) {
			rounds, served := 0, 0
			var broken error
			watched := schedtest.Watch(sched.NewFIFO(), func(capacity float64, jobs []sched.JobView, shares *sched.Shares) {
				rounds++
				served += len(shares.Served())
				if err := schedtest.FIFOError(capacity, jobs, shares); err != nil && broken == nil {
					broken = fmt.Errorf("round %d: %v", rounds, err)
				}
			})
			if _, err := in.run(watched); err != nil {
				t.Fatal(err)
			}
			if broken != nil {
				t.Fatal(broken)
			}
			if rounds == 0 || served == 0 {
				t.Fatalf("checked %d answers serving %d views", rounds, served)
			}
		})
	}
}

// TestLASMQMatchesLiteral runs LAS_MQ and schedtest.LiteralLASMQ — Algorithms
// 1 and 2 written from the paper, which keeps each job's queue and works
// everything else out afresh every round — on the engine's pinned inputs
// (literalInputs), under stage awareness and demand order each on and off,
// and requires equal results. The literal has no rate-bounded horizon, so the
// engine observes it at every instant where LAS_MQ may skip: skipping must
// change nothing either.
func TestLASMQMatchesLiteral(t *testing.T) {
	for _, in := range literalInputs() {
		for _, stageAware := range []bool{false, true} {
			for _, byDemand := range []bool{false, true} {
				cfg := core.DefaultConfig()
				cfg.StageAware, cfg.OrderByDemand = stageAware, byDemand
				t.Run(fmt.Sprintf("%s/stageAware=%v/byDemand=%v", in.name, stageAware, byDemand), func(t *testing.T) {
					mq, err := core.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := in.run(mq)
					if err != nil {
						t.Fatal(err)
					}
					want, err := in.run(&schedtest.LiteralLASMQ{Queues: cfg.Queues, FirstThreshold: cfg.FirstThreshold,
						Step: cfg.Step, Decay: cfg.QueueWeightDecay, StageAware: stageAware, OrderByDemand: byDemand})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatal("LAS_MQ and the literal LAS_MQ differ")
					}
				})
			}
		}
	}
}
