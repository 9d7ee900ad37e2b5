package sched

// PS is the processor-sharing baseline: capacity is split evenly among all
// runnable jobs with demand-capped max-min water filling, so unused share
// flows to jobs that can use it. It is the priority-blind special case of
// Fair and the insertion-free reference point for the analytic cross-check:
// in an M/M/1 queue PS has the closed-form mean response time E[S]/(1-rho).
//
// The scheduler carries water-filling scratch, so one instance must not be
// shared between concurrent simulation runs.
type PS struct {
	fill []fillEntry
	maps MapForms
}

// NewPS returns the processor-sharing baseline scheduler.
func NewPS() *PS { return &PS{} }

var (
	_ Scheduler        = (*PS)(nil)
	_ BufferedAssigner = (*PS)(nil)
	_ DenseAssigner    = (*PS)(nil)
)

// Name implements Scheduler.
func (p *PS) Name() string { return "PS" }

// Assign implements Scheduler.
func (p *PS) Assign(now, capacity float64, jobs []JobView) Assignment {
	return p.maps.Assign(p, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (p *PS) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	p.maps.AssignInto(p, now, capacity, jobs, out)
}

// AssignDense implements DenseAssigner.
func (p *PS) AssignDense(now, capacity float64, jobs []JobView, _, _, _ []int32, shares []float64) {
	weightedFill(&p.fill, capacity, jobs, func(JobView) float64 { return 1 }, shares)
}
