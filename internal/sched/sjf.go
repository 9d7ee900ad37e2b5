package sched

// SJF is the shortest-job-first policy that the paper's introduction argues
// against: it needs a priori size information (JobView.SizeHint). Engines may
// perturb the hint to model estimation error, reproducing the paper's claim
// that under-estimated large jobs delay all smaller jobs behind them.
//
// The scheduler carries its last order, so one instance must not be shared
// between concurrent simulation runs.
type SJF struct {
	entries []viewEntry // between rounds: the last round's order (see carriedEntries)
	at      []int32     // carriedEntries' scratch
	maps    MapForms
}

// NewSJF returns the SJF baseline scheduler.
func NewSJF() *SJF { return &SJF{} }

var (
	_ Scheduler        = (*SJF)(nil)
	_ BufferedAssigner = (*SJF)(nil)
	_ DenseAssigner    = (*SJF)(nil)
)

// Name implements Scheduler.
func (s *SJF) Name() string { return "SJF" }

// Assign implements Scheduler.
func (s *SJF) Assign(now, capacity float64, jobs []JobView) Assignment {
	return s.maps.Assign(s, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (s *SJF) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	s.maps.AssignInto(s, now, capacity, jobs, out)
}

// AssignDense implements DenseAssigner.
func (s *SJF) AssignDense(now, capacity float64, jobs []JobView, slots, _, _ []int32, shares *Shares) {
	orderFill(&s.entries, &s.at, capacity, jobs, slots, JobView.SizeHint, shares)
}

// SRTF is the preemptive shortest-remaining-time-first policy. Like SJF it
// requires size information (JobView.RemainingSizeHint).
//
// The scheduler carries its last order, so one instance must not be shared
// between concurrent simulation runs.
type SRTF struct {
	entries []viewEntry // between rounds: the last round's order (see carriedEntries)
	at      []int32     // carriedEntries' scratch
	maps    MapForms
}

// NewSRTF returns the SRTF baseline scheduler.
func NewSRTF() *SRTF { return &SRTF{} }

var (
	_ Scheduler        = (*SRTF)(nil)
	_ BufferedAssigner = (*SRTF)(nil)
	_ DenseAssigner    = (*SRTF)(nil)
)

// Name implements Scheduler.
func (s *SRTF) Name() string { return "SRTF" }

// Assign implements Scheduler.
func (s *SRTF) Assign(now, capacity float64, jobs []JobView) Assignment {
	return s.maps.Assign(s, now, capacity, jobs)
}

// AssignInto implements BufferedAssigner.
func (s *SRTF) AssignInto(now float64, capacity float64, jobs []JobView, out Assignment) {
	s.maps.AssignInto(s, now, capacity, jobs, out)
}

// AssignDense implements DenseAssigner.
func (s *SRTF) AssignDense(now, capacity float64, jobs []JobView, slots, _, _ []int32, shares *Shares) {
	orderFill(&s.entries, &s.at, capacity, jobs, slots, JobView.RemainingSizeHint, shares)
}
