package sched

// FIFOFinds reports how often f's serve found a stale view index by a walk
// (FindView) and by a full re-stamp of every record.
func FIFOFinds(f *FIFO) (walks, restamps int) { return f.walks, f.restamps }
