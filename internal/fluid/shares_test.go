package fluid_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"lasmq/internal/fluid"
	"lasmq/internal/sched"
)

// fakeShares is FIFO with one job's share replaced in the rounds from time
// from until time until: a fake dense policy for the simulator's handling of
// shares no policy here gives.
type fakeShares struct {
	*sched.FIFO
	job         int
	from, until float64
	share       float64
}

func (p fakeShares) Name() string { return "FAKE" }

func (p fakeShares) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares []float64) {
	p.FIFO.AssignDense(now, capacity, jobs, slots, changed, freed, shares)
	for i, j := range jobs {
		if j.ID() == p.job && now >= p.from && now < p.until {
			shares[i] = p.share
		}
	}
}

// sharesTrace is two jobs that fill the 10-container cluster one after the
// other, with rounds every 0.25 time units.
func sharesTrace() ([]fluid.JobSpec, fluid.Config) {
	return []fluid.JobSpec{
			{ID: 1, Arrival: 0, Size: 20, Width: 10, Priority: 1},
			{ID: 2, Arrival: 0, Size: 10, Width: 10, Priority: 1},
		},
		fluid.Config{Capacity: 10, TaskDuration: 1, MaxStep: 0.25}
}

// TestNaNShareRejected: a NaN share is an error naming the policy and the job,
// raised in the round it appears in, whether the job was being served (job 1)
// or not (job 2, behind job 1 under FIFO).
func TestNaNShareRejected(t *testing.T) {
	specs, cfg := sharesTrace()
	for _, job := range []int{1, 2} {
		p := fakeShares{FIFO: sched.NewFIFO(), job: job, from: 0.5, until: math.Inf(1), share: math.NaN()}
		_, err := fluid.Run(specs, p, cfg)
		if err == nil {
			t.Fatalf("job %d: a NaN share ran to completion", job)
		}
		for _, want := range []string{"FAKE", fmt.Sprintf("job %d", job), "NaN", "t=0.5"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("job %d: error %q does not name %q", job, err, want)
			}
		}
	}
}

// TestNegativeShareClampedToZero: a negative share serves the job at rate
// zero, so the run is the one a zero share gives, for the job FIFO serves
// (job 1) and for the one it does not (job 2).
func TestNegativeShareClampedToZero(t *testing.T) {
	specs, cfg := sharesTrace()
	for _, job := range []int{1, 2} {
		run := func(share float64) *fluid.Result {
			p := fakeShares{FIFO: sched.NewFIFO(), job: job, from: 0.5, until: 1, share: share}
			res, err := fluid.Run(specs, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		neg, zero := run(-3), run(0)
		if !reflect.DeepEqual(neg, zero) {
			t.Fatalf("job %d: a negative share ran differently from a zero one:\n%+v\n%+v", job, neg, zero)
		}
		if plain, err := fluid.Run(specs, sched.NewFIFO(), cfg); err != nil {
			t.Fatal(err)
		} else if job == 1 && zero.Makespan == plain.Makespan {
			t.Fatalf("holding job 1 at zero left the makespan at %v", plain.Makespan)
		}
	}
}
