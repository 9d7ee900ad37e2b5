package fluid_test

import (
	"fmt"
	"math"
	"testing"

	"lasmq/internal/fluid"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
)

// TestServiceConserved checks, between every two rounds of every contract
// policy on every pinned trace, that service is conserved: the live jobs'
// attained service plus the sizes of the completed jobs equals the service
// delivered, to 1e-9 relative; that no job's attained service ever
// decreases; and that every job completes exactly once. The rounds visit
// only the jobs served or just admitted, so a job the visit missed would
// break the sum.
func TestServiceConserved(t *testing.T) {
	for _, tr := range pinnedTraces(t) {
		for _, p := range contractPolicies(t) {
			t.Run(tr.name+"/"+p.name, func(t *testing.T) {
				attained := map[int]float64{} // by job ID, as of the latest round
				completions := map[int]int{}
				completedSize := 0.0
				checks := 0
				var broken error
				conserved := func(delivered, live float64) error {
					if got := live + completedSize; math.Abs(got-delivered) > 1e-9*delivered {
						return fmt.Errorf("attained %v + completed %v = %v, delivered %v", live, completedSize, got, delivered)
					}
					return nil
				}
				mk := func(delivered func() float64) sched.Scheduler {
					policy, err := p.new()
					if err != nil {
						t.Fatal(err)
					}
					return schedtest.Watch(policy, func(_ float64, jobs []sched.JobView, _ *sched.Shares) {
						checks++
						live := 0.0
						for _, j := range jobs {
							a := j.Attained()
							if a < attained[j.ID()] && broken == nil {
								broken = fmt.Errorf("round %d: job %d's attained service fell from %v to %v", checks, j.ID(), attained[j.ID()], a)
							}
							attained[j.ID()] = a
							live += a
						}
						if err := conserved(delivered(), live); err != nil && broken == nil {
							broken = fmt.Errorf("round %d: %v", checks, err)
						}
					})
				}
				res, err := fluid.StreamDelivering(tr.specs, mk, tr.cfg, func(jr fluid.JobResult) {
					completions[jr.ID]++
					completedSize += jr.Size
				})
				if err != nil {
					t.Fatal(err)
				}
				if broken != nil {
					t.Fatal(broken)
				}
				if err := conserved(res.Delivered, 0); err != nil {
					t.Fatalf("at the end: %v", err)
				}
				for _, sp := range tr.specs {
					if n := completions[sp.ID]; n != 1 {
						t.Fatalf("job %d completed %d times", sp.ID, n)
					}
				}
				if len(completions) != len(tr.specs) || checks < res.Rounds {
					t.Fatalf("%d jobs completed of %d; %d checks over %d rounds", len(completions), len(tr.specs), checks, res.Rounds)
				}
			})
		}
	}
}
