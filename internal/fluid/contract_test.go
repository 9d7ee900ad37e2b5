package fluid_test

import (
	"fmt"
	"reflect"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// contractPolicies are the pinned policies, a blend at theta = 0.5 and
// LAS_MQ behind the map adapter.
func contractPolicies(t *testing.T) []namedPolicy {
	mq := func() (*core.LASMQ, error) {
		cfg := core.DefaultConfig()
		cfg.FirstThreshold = 1
		cfg.StageAware = false
		cfg.OrderByDemand = false
		return core.New(cfg)
	}
	return append(pinnedPolicies(t),
		namedPolicy{"Blend-0.5", func() (sched.Scheduler, error) {
			p, err := mq()
			if err != nil {
				return nil, err
			}
			return sched.NewBlend(p, sched.NewFair(), 0.5)
		}},
		namedPolicy{"MapOnly-LAS_MQ", func() (sched.Scheduler, error) {
			p, err := mq()
			return schedtest.MapOnly(p), err
		}},
	)
}

// TestSparseAnswerContract: every answer the fluid simulator reads through
// substrate.Driver.Shares and ViewSet.Served keeps the sparse contract — the served list strictly
// ascending and naming exactly the views with a nonzero share, the column
// zero everywhere else — for every contract policy on every pinned trace, and
// watching the answers changes no result.
func TestSparseAnswerContract(t *testing.T) {
	for _, tr := range pinnedTraces(t) {
		for _, p := range contractPolicies(t) {
			t.Run(tr.name+"/"+p.name, func(t *testing.T) {
				plain, err := p.new()
				if err != nil {
					t.Fatal(err)
				}
				policy, err := p.new()
				if err != nil {
					t.Fatal(err)
				}
				rounds, served := 0, 0
				var broken error
				watched := schedtest.Watch(policy, func(_ float64, jobs []sched.JobView, shares *sched.Shares) {
					rounds++
					served += len(shares.Served())
					if err := schedtest.AnswerError(len(jobs), shares); err != nil && broken == nil {
						broken = fmt.Errorf("round %d: %v", rounds, err)
					}
				})
				got, err := fluid.Run(tr.specs, watched, tr.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if broken != nil {
					t.Fatal(broken)
				}
				want, err := fluid.Run(tr.specs, plain, tr.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("watching the answers changed the run")
				}
				if rounds != got.Rounds || served == 0 {
					t.Fatalf("watched %d answers serving %d views over %d rounds", rounds, served, got.Rounds)
				}
			})
		}
	}
}

// TestFIFOMatchesLiteral holds every round of FIFO on every pinned trace
// against schedtest.LiteralFIFO — the views sorted by Seq, each granted
// min(ReadyDemand, capacity left) — bit for bit: FIFO's queue, kept from the
// change log and served from its head, must answer what a sort of every
// view would.
func TestFIFOMatchesLiteral(t *testing.T) {
	for _, tr := range pinnedTraces(t) {
		t.Run(tr.name, func(t *testing.T) {
			rounds, served := 0, 0
			var broken error
			watched := schedtest.Watch(sched.NewFIFO(), func(capacity float64, jobs []sched.JobView, shares *sched.Shares) {
				rounds++
				served += len(shares.Served())
				if err := schedtest.FIFOError(capacity, jobs, shares); err != nil && broken == nil {
					broken = fmt.Errorf("round %d: %v", rounds, err)
				}
			})
			res, err := fluid.Run(tr.specs, watched, tr.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if broken != nil {
				t.Fatal(broken)
			}
			if rounds != res.Rounds || served == 0 {
				t.Fatalf("checked %d answers serving %d views over %d rounds", rounds, served, res.Rounds)
			}
		})
	}
}
