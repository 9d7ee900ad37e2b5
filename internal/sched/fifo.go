package sched

// FIFO serves jobs strictly in admission order: the earliest-admitted job
// receives containers up to its full demand before any later job receives
// anything. This is the paper's worst-performing baseline on mixed job
// sizes because small jobs are blocked behind large ones.
//
// The scheduler carries sort scratch, so one instance must not be shared
// between concurrent simulation runs.
type FIFO struct {
	entries []viewEntry
	maps    MapForms
}

// NewFIFO returns the FIFO baseline scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

var (
	_ Scheduler        = (*FIFO)(nil)
	_ BufferedAssigner = (*FIFO)(nil)
	_ DenseAssigner    = (*FIFO)(nil)
)

// Name implements Scheduler.
func (f *FIFO) Name() string { return "FIFO" }

// Assign implements Scheduler.
func (f *FIFO) Assign(now, capacity float64, jobs []JobView) Assignment {
	return f.maps.Assign(f, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (f *FIFO) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	f.maps.AssignInto(f, now, capacity, jobs, out)
}

// AssignDense implements DenseAssigner.
func (f *FIFO) AssignDense(now, capacity float64, jobs []JobView, _, _, _ []int32, shares []float64) {
	orderFill(&f.entries, capacity, jobs, func(j JobView) float64 { return float64(j.Seq()) }, shares)
}
