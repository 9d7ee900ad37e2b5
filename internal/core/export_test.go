package core

// SlotRecs reports the length and capacity of s's slot-record array.
func SlotRecs(s *LASMQ) (length, capacity int) { return len(s.recs), cap(s.recs) }
