package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

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
	inputs := diffInputs("diff", 40)
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

// diffInputs are diffWorkload's seeds 1-3 at n jobs under every noise
// configuration.
func diffInputs(name string, n int) []literalInput {
	var inputs []literalInput
	for seed := int64(1); seed <= 3; seed++ {
		for cname, tweak := range diffConfigs() {
			cfg := engine.DefaultConfig()
			cfg.Containers = 20
			cfg.MaxRunningJobs = 0
			cfg.Seed = seed
			tweak(&cfg)
			inputs = append(inputs, literalInput{fmt.Sprintf("%s/seed%d/%s", name, seed, cname), diffWorkload(seed, n), cfg, false})
		}
	}
	return inputs
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

// conformance is the engine's substrate for schedtest.Conform: the engine's
// pinned inputs (literalInputs) and the differential workload at 24 jobs,
// with LAS_MQ in its default configuration and at a first threshold of 10,
// and Gittins under the pinned model. TestConform and the tests below, which
// read its checks, share its runs.
var conformance struct {
	sync.Once
	s *schedtest.Substrate
}

func conforming(t *testing.T) *schedtest.Substrate {
	conformance.Do(func() {
		inputs := append(literalInputs(), diffInputs("diff24", 24)...)
		attained := core.DefaultConfig()
		attained.FirstThreshold = 10
		names := make([]string, len(inputs))
		for i, in := range inputs {
			names[i] = in.name
		}
		conformance.s = &schedtest.Substrate{
			Inputs: names,
			Run: func(i int, p sched.Scheduler, probe obs.Probe, check schedtest.Check) (any, error) {
				in := inputs[i]
				in.cfg.Probe = probe
				return in.run(schedtest.Watch(p, check))
			},
			LASMQ:   []core.Config{core.DefaultConfig(), attained},
			Gittins: pinnedGittinsModel(t),
		}
	})
	if conformance.s == nil {
		t.Fatal("the engine's conformance substrate was not built")
	}
	return conformance.s
}

// TestConform holds every policy of schedtest.Conform's table to its oracles
// on the engine's conformance substrate.
func TestConform(t *testing.T) {
	schedtest.Conform(t, conforming(t))
}

// The tests below keep the names of the per-oracle tests Conform replaced.
// Each fails on every check of Conform's table that fails on a pair the old
// test ran; the pairs run once, for whichever test reads them first.

// mqDefault and mqAttained name Conform's LAS_MQ in its default configuration
// and at a first threshold of 10 with stage awareness and demand order off.
const (
	mqDefault  = "LAS_MQ/first=100/stageAware=true/byDemand=true"
	mqAttained = "LAS_MQ/first=10/stageAware=false/byDemand=false"
)

// TestSparseAnswerContract: every answer of every core.PolicyNames policy,
// Gittins, the adaptive wrapper, a blend at theta = 0.5 and LAS_MQ behind the
// map adapter, on the differential workload with speculation, keeps the
// sparse contract, and watching the answers changes no result.
func TestSparseAnswerContract(t *testing.T) {
	s := conforming(t)
	policies := map[string]string{"Gittins": "Gittins", "Adaptive": "Adaptive", "Blend-0.5": "Blend-0.5",
		"MapOnly-LAS_MQ": mqDefault, "lasmq": mqDefault}
	for _, name := range core.PolicyNames()[1:] {
		p, err := core.NewPolicy(name, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		policies[name] = p.Name()
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			s.Check(t, "diff24/seed1/speculation", policy)
		})
	}
}

// TestFIFOMatchesLiteral holds every answer of FIFO on the engine's pinned
// inputs (literalInputs) against schedtest.LiteralFIFO, bit for bit.
func TestFIFOMatchesLiteral(t *testing.T) {
	s := conforming(t)
	for _, in := range literalInputs() {
		t.Run(in.name, func(t *testing.T) { s.Check(t, in.name, "FIFO") })
	}
}

// TestLASMQMatchesLiteral holds LAS_MQ against schedtest.LiteralLASMQ on the
// engine's pinned inputs (literalInputs), under stage awareness and demand
// order each on and off, and its queue events to the demote-only rule
// (schedtest.DemoteOnly), which must check a demotion.
func TestLASMQMatchesLiteral(t *testing.T) {
	s := conforming(t)
	demotions := 0
	for _, in := range literalInputs() {
		for _, stageAware := range []bool{false, true} {
			for _, byDemand := range []bool{false, true} {
				sub := fmt.Sprintf("stageAware=%v/byDemand=%v", stageAware, byDemand)
				t.Run(in.name+"/"+sub, func(t *testing.T) {
					demotions += s.Check(t, in.name, "LAS_MQ/first=100/"+sub)
				})
			}
		}
	}
	if demotions == 0 {
		t.Error("the demote-only probe checked no demotion")
	}
}

// diffPolicyNames names, for each policy of diffPolicies, its row in
// Conform's table.
func diffPolicyNames() map[string]string {
	return map[string]string{"FIFO": "FIFO", "Fair": "FAIR", "PS": "PS", "LAS": "LAS", "SJF": "SJF", "SRTF": "SRTF",
		"SRPT": "SRPT", "Gittins": "Gittins", "LASMQ-stageaware": mqDefault, "LASMQ-attained": mqAttained,
		"Adaptive": "Adaptive", "Blend": "Blend-0.4"}
}

// TestDenseMatchesMapOnly is the dense round contract's gate on the engine: a
// policy driven through its dense forms and the same policy with those forms
// hidden (schedtest.MapOnly) must produce DeepEqual results and
// byte-identical probe streams, for every policy of diffPolicies × 6 noise
// configurations × 3 seeds of the differential workload at 24 jobs.
func TestDenseMatchesMapOnly(t *testing.T) {
	s := conforming(t)
	for pname, policy := range diffPolicyNames() {
		for cname := range diffConfigs() {
			t.Run(pname+"/"+cname, func(t *testing.T) {
				for seed := 1; seed <= 3; seed++ {
					s.Check(t, fmt.Sprintf("diff24/seed%d/%s", seed, cname), policy)
				}
			})
		}
	}
}

// TestProbedMatchesUnprobed: attaching every obs sink changes no result, for
// every policy of diffPolicies on seeds 1 and 2 of the differential workload
// at 24 jobs under chaos (failures, stragglers, speculation, an admission
// cap).
func TestProbedMatchesUnprobed(t *testing.T) {
	s := conforming(t)
	for pname, policy := range diffPolicyNames() {
		t.Run(pname, func(t *testing.T) {
			for seed := 1; seed <= 2; seed++ {
				s.Check(t, fmt.Sprintf("diff24/seed%d/everything", seed), policy)
			}
		})
	}
}
