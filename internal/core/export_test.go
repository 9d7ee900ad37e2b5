package core

// SlotRecs reports the length and capacity of s's slot-record array.
func SlotRecs(s *LASMQ) (length, capacity int) { return len(s.recs), cap(s.recs) }

// Quantile is the selection-based quantile Adaptive's refit reads.
func Quantile(s []float64, q float64) float64 { return quantile(s, q) }

// Finds reports how often the serve of p, LAS_MQ or the adaptive wrapper
// around it, found a stale view index by a walk (sched.FindView) and by a
// full re-stamp of every record.
func Finds(p any) (walks, restamps int) {
	s, _ := p.(*LASMQ)
	if a, ok := p.(*Adaptive); ok {
		s = a.inner
	}
	return s.walks, s.restamps
}

// SetCalls sets the count of AssignDense calls of p, LAS_MQ or the adaptive
// wrapper around it, which stamps its records (slotRec.call).
func SetCalls(p any, n uint32) {
	s, _ := p.(*LASMQ)
	if a, ok := p.(*Adaptive); ok {
		s = a.inner
	}
	s.call = n
}
