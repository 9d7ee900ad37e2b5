package fluid

import (
	"errors"
	"fmt"
	"math"

	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// StreamResult reports a streaming (or sharded) fluid run. Unlike Result it
// holds no per-job slice — a million-job run keeps running aggregates only;
// per-job records flow through RunStream's callback as jobs complete. The
// response and slowdown sums accumulate in completion order (deterministic
// for a given seeded run), not trace order, so their last-ulp values may
// differ from a materialized Result's trace-order sums; the differential
// tests compare the per-job outcomes, which are byte-identical.
type StreamResult struct {
	// Scheduler is the policy name (sched.Scheduler.Name).
	Scheduler string
	// Jobs is the number of completed jobs.
	Jobs int
	// Makespan is the completion time of the last job.
	Makespan float64
	// Utilization is the time-averaged fraction of capacity in use over the
	// makespan.
	Utilization float64
	// Delivered is the total service delivered in capacity-time units
	// (Utilization's numerator, kept explicit so sharded runs can fold
	// per-shard results exactly).
	Delivered float64
	// Rounds is the number of scheduling rounds executed.
	Rounds int
	// SumResponse and SumSlowdown accumulate per-job response times and
	// slowdowns in completion order.
	SumResponse float64
	SumSlowdown float64
	// Slab reports the job-record free list: peak live jobs bounds the run's
	// state memory, recycled counts mid-run slot reuses. Sharded runs sum the
	// per-shard values.
	Slab substrate.SlabStats
}

// MeanResponseTime is the average job response time; 0 with no jobs.
func (r *StreamResult) MeanResponseTime() float64 {
	if r.Jobs == 0 {
		return 0
	}
	return r.SumResponse / float64(r.Jobs)
}

// validateSpec is the one place a job spec is checked: Run applies it to the
// whole trace before anything runs, the arrival cursor to each streamed spec
// as it is read.
func validateSpec(s *JobSpec) error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"arrival", s.Arrival}, {"size", s.Size}, {"width", s.Width}} {
		if !finite(f.v) {
			return fmt.Errorf("fluid: job %d has non-finite %s %v", s.ID, f.name, f.v)
		}
	}
	if s.Size <= 0 {
		return fmt.Errorf("fluid: job %d has non-positive size %v", s.ID, s.Size)
	}
	if s.Width < 1 {
		return fmt.Errorf("fluid: job %d has width %v < 1", s.ID, s.Width)
	}
	if s.Arrival < 0 {
		return fmt.Errorf("fluid: job %d has negative arrival %v", s.ID, s.Arrival)
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// validateStreamSpec is the arrival cursor's Validate hook: validateSpec plus
// the nondecreasing-order contract a streaming run must enforce on the fly
// (prev is the previously yielded arrival, meaningful when n > 0).
func validateStreamSpec(n int, prev float64, s *JobSpec) error {
	if err := validateSpec(s); err != nil {
		return err
	}
	if n > 0 && s.Arrival < prev {
		return fmt.Errorf("fluid: source not sorted: job %d arrives at %v after %v",
			s.ID, s.Arrival, prev)
	}
	return nil
}

// RunStream simulates a streamed trace under the given policy. The source
// must yield jobs in nondecreasing arrival order (trace generators and
// WriteCSV output are; an unsorted stream is an error — a streaming run
// cannot sort what it has not read). Completed jobs are reported through
// each (in completion order) when non-nil, and their records return to a
// free-list pool, so peak memory is bounded by the jobs live at once, not
// the trace length. The scheduler instance must be fresh. Unlike Run,
// duplicate job IDs are not detected (that check needs trace-length state).
func RunStream(src Source, policy sched.Scheduler, cfg Config, each func(JobResult)) (*StreamResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("fluid: nil scheduler")
	}
	if src == nil {
		return nil, errors.New("fluid: nil source")
	}
	return newSim(src, policy, cfg, each).stream()
}
