package fluid

import "lasmq/internal/sched"

// StreamDelivering streams specs, which must be in arrival order, through the
// simulator under the policy mk builds, handing mk a reader of the service
// the run has delivered so far, for checks that run between rounds.
func StreamDelivering(specs []JobSpec, mk func(delivered func() float64) sched.Scheduler, cfg Config, each func(JobResult)) (*StreamResult, error) {
	var s *sim
	s = newSim(SliceSource(specs), mk(func() float64 { return s.out.Delivered }), cfg, each)
	return s.stream()
}
