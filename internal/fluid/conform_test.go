package fluid_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// conformance is the fluid simulator's substrate for schedtest.Conform: the
// pinned traces and diffTrace's seeds 2 and 3, with LAS_MQ in the
// trace-simulation configuration of pinnedPolicies and Gittins under the
// pinned model. The simulator's own checks on a watched run are that service
// is conserved between every two answers and that every round's answer is
// checked. TestConform and the tests below, which read its checks, share
// its runs.
var conformance struct {
	sync.Once
	s *schedtest.Substrate
}

func conforming(t *testing.T) *schedtest.Substrate {
	conformance.Do(func() {
		mq := core.DefaultConfig()
		mq.FirstThreshold, mq.StageAware, mq.OrderByDemand = 1, false, false
		inputs := pinnedTraces(t)
		for _, seed := range []int64{2, 3} {
			specs, tcfg := diffTrace(t, seed)
			cfg := fluid.DefaultConfig()
			cfg.Capacity = tcfg.Capacity
			inputs = append(inputs, pinnedTrace{fmt.Sprintf("facebook/seed%d", seed), specs, cfg})
		}
		names := make([]string, len(inputs))
		for i, in := range inputs {
			names[i] = in.name
		}
		conformance.s = &schedtest.Substrate{
			Inputs: names,
			Run: func(i int, p sched.Scheduler, probe obs.Probe, check schedtest.Check) (any, error) {
				in := inputs[i]
				c := conservation{attained: make([]float64, len(in.specs)+1)}
				answers := 0
				in.cfg.Probe = probe
				jobs := make([]fluid.JobResult, 0, len(in.specs))
				res, err := fluid.StreamDelivering(in.specs, func(delivered func() float64) sched.Scheduler {
					if check == nil {
						return p
					}
					return schedtest.Watch(p, func(call *schedtest.Call) {
						check(call)
						if call.Shares != nil {
							answers++
							c.round(delivered(), call.Jobs)
						}
					})
				}, in.cfg, func(jr fluid.JobResult) {
					jobs = append(jobs, jr)
					c.completed += jr.Size
				})
				if err == nil {
					c.round(res.Delivered, nil)
					err = c.err
				}
				if err == nil && check != nil && answers != res.Rounds {
					err = fmt.Errorf("%d answers checked over %d rounds", answers, res.Rounds)
				}
				return []any{res, jobs}, err
			},
			LASMQ:   []core.Config{mq},
			Gittins: pinnedGittinsModel(t),
		}
	})
	if conformance.s == nil {
		t.Fatal("the fluid simulator's conformance substrate was not built")
	}
	return conformance.s
}

// TestConform holds every policy of schedtest.Conform's table to its oracles
// on the fluid simulator's conformance substrate.
func TestConform(t *testing.T) {
	schedtest.Conform(t, conforming(t))
}

// The tests below keep the names of the per-oracle tests Conform replaced.
// Each fails on every check of Conform's table that fails on a pair the old
// test ran; the pairs run once, for whichever test reads them first.

// mqPinned names Conform's LAS_MQ in the configuration of pinnedPolicies.
const mqPinned = "LAS_MQ/first=1/stageAware=false/byDemand=false"

// contractPolicies names, for each pinned policy, a blend at theta = 0.5 and
// LAS_MQ behind the map adapter, its row in Conform's table.
func contractPolicies(t *testing.T) map[string]string {
	out := map[string]string{"Blend-0.5": "Blend-0.5", "MapOnly-LAS_MQ": mqPinned}
	for _, p := range pinnedPolicies(t) {
		out[p.name] = p.name
	}
	out["LAS_MQ"], out["Blend"] = mqPinned, "Blend-0.4"
	return out
}

// TestSparseAnswerContract: every answer of every contract policy on every
// pinned trace keeps the sparse contract, and neither watching the answers nor
// any sink attached changes the result.
func TestSparseAnswerContract(t *testing.T) { readContract(t) }

// readContract fails t on every check that fails on a pinned trace under a
// contract policy, in a subtest for each pair.
func readContract(t *testing.T) {
	s := conforming(t)
	for _, tr := range pinnedTraces(t) {
		for name, policy := range contractPolicies(t) {
			t.Run(tr.name+"/"+name, func(t *testing.T) { s.Check(t, tr.name, policy) })
		}
	}
}

// TestFIFOMatchesLiteral holds every answer of FIFO on every pinned trace
// against schedtest.LiteralFIFO, bit for bit.
func TestFIFOMatchesLiteral(t *testing.T) {
	s := conforming(t)
	for _, tr := range pinnedTraces(t) {
		t.Run(tr.name, func(t *testing.T) { s.Check(t, tr.name, "FIFO") })
	}
}

// TestLASMQMatchesLiteral holds LAS_MQ against schedtest.LiteralLASMQ, bit
// for bit, on every pinned trace and on diffTrace's seeds 2 and 3, under
// stage awareness and demand order each on and off.
func TestLASMQMatchesLiteral(t *testing.T) {
	s := conforming(t)
	for _, input := range s.Inputs {
		for _, stageAware := range []bool{false, true} {
			for _, byDemand := range []bool{false, true} {
				sub := fmt.Sprintf("stageAware=%v/byDemand=%v", stageAware, byDemand)
				t.Run(input+"/"+sub, func(t *testing.T) {
					s.Check(t, input, "LAS_MQ/first=1/"+sub)
				})
			}
		}
	}
}

// TestServiceConserved checks, between every two answers of every contract
// policy on every pinned trace, that service is conserved — the live jobs'
// attained service plus the sizes of the completed jobs equals the service
// delivered, to 1e-9 relative, and no job's attained service ever decreases
// (the substrate's own check, which fails the run) — and that every job
// completes exactly once.
func TestServiceConserved(t *testing.T) { readContract(t) }

// TestDenseMatchesMapOnly is the dense round contract's gate on the fluid
// simulator: a policy driven through its dense forms and the same policy with
// those forms hidden (schedtest.MapOnly) must produce DeepEqual results and
// byte-identical probe streams, over diffTrace's 3 seeds × every pinned
// policy. Jobs here complete, and their slots are reissued, thousands of
// times a run.
func TestDenseMatchesMapOnly(t *testing.T) {
	s := conforming(t)
	inputs := []string{"facebook", "facebook/seed2", "facebook/seed3"}
	policies := contractPolicies(t)
	for seed, input := range inputs {
		for _, p := range pinnedPolicies(t) {
			t.Run(fmt.Sprintf("seed%d/%s", seed+1, p.name), func(t *testing.T) {
				s.Check(t, input, policies[p.name])
			})
		}
	}
}

// conservation is what TestConform's watched runs keep between rounds: each
// live job's attained service as of the latest answer, by job ID (the inputs
// number their jobs from 1), the sizes of the jobs completed, and the first
// break of service conservation.
type conservation struct {
	attained  []float64
	completed float64
	err       error
}

// round checks service conservation up to an answer over jobs: the live jobs'
// attained service plus the completed jobs' sizes must equal the service
// delivered, to 1e-9 relative, and no job's attained service may fall. A
// round visits only the jobs served or just admitted, so a job the visit
// missed would break the sum.
func (c *conservation) round(delivered float64, jobs []sched.JobView) {
	live := 0.0
	for _, j := range jobs {
		a := j.Attained()
		if a < c.attained[j.ID()] && c.err == nil {
			c.err = fmt.Errorf("job %d's attained service fell from %v to %v", j.ID(), c.attained[j.ID()], a)
		}
		c.attained[j.ID()] = a
		live += a
	}
	if got := live + c.completed; math.Abs(got-delivered) > 1e-9*delivered && c.err == nil {
		c.err = fmt.Errorf("attained %v + completed %v = %v, delivered %v", live, c.completed, got, delivered)
	}
}
