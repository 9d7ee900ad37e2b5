package sched

// Fair is the YARN Fair scheduler baseline: capacity is shared among
// runnable jobs proportionally to their priorities (the paper draws
// priorities uniformly from [1,5]), with demand-capped max-min water
// filling so unused share flows to jobs that can use it.
//
// The scheduler carries water-filling scratch, so one instance must not be
// shared between concurrent simulation runs.
type Fair struct {
	fill []fillEntry
	maps MapForms
}

// NewFair returns the Fair baseline scheduler.
func NewFair() *Fair { return &Fair{} }

var (
	_ Scheduler        = (*Fair)(nil)
	_ BufferedAssigner = (*Fair)(nil)
	_ DenseAssigner    = (*Fair)(nil)
)

// Name implements Scheduler.
func (f *Fair) Name() string { return "FAIR" }

// Assign implements Scheduler.
func (f *Fair) Assign(now, capacity float64, jobs []JobView) Assignment {
	return f.maps.Assign(f, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (f *Fair) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	f.maps.AssignInto(f, now, capacity, jobs, out)
}

// AssignDense implements DenseAssigner.
func (f *Fair) AssignDense(now, capacity float64, jobs []JobView, _, _, _ []int32, shares *Shares) {
	weightedFill(&f.fill, capacity, jobs, func(j JobView) float64 {
		p := j.Priority()
		if p <= 0 {
			p = 1
		}
		return float64(p)
	}, shares)
}
