package sched

// FIFO serves jobs strictly in admission order: the earliest-admitted job
// receives containers up to its full demand before any later job receives
// anything. This is the paper's worst-performing baseline on mixed job
// sizes because small jobs are blocked behind large ones.
//
// Over slotted views FIFO keeps a record per slot, the live ones linked into
// a queue in Seq order that the change log (see dense.go) keeps current: a
// freed slot leaves the queue, an arrival joins it by seq — an append, in
// admission order — and a round walks it from the head, reading only the
// views it walks, until capacity runs out. Views without slots (the map
// forms issue FIFO none) are sorted afresh each round. The scheduler carries
// this state, so one instance must not be shared between concurrent
// simulation runs.
type FIFO struct {
	// recs[slot+1] is the record of the job holding slot; recs[0] is the
	// queue's sentinel, its next the head and its prev the tail.
	recs    []fifoRec
	entries []viewEntry // the slotless round's sort scratch
	maps    MapForms
	// gone counts the logged departures (fifoRec.at); serve counts its finds.
	gone            int32
	walks, restamps int
}

// fifoRec is FIFO's record of the job holding a slot and its place in the
// queue, whose links are record indices (0: the sentinel). The job is known
// by its seq, which no two jobs of a run share; at 24 bytes a record costs
// what the slotless round's sort entry does.
type fifoRec struct {
	seq        int
	at         int32 // its view index when last stamped plus gone then (see FindView)
	prev, next int32
	live       bool
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

// AssignDense implements DenseAssigner: the queue, brought up to date from
// the change log and served from its head, or over slotless views a sort.
func (f *FIFO) AssignDense(now, capacity float64, jobs []JobView, slots, changed, freed []int32, shares *Shares) {
	if slots == nil {
		orderFill(&f.entries, capacity, jobs, func(j JobView) float64 { return float64(j.Seq()) }, shares)
		return
	}
	f.follow(jobs, slots, changed, freed)
	f.serve(capacity, jobs, slots, changed == nil, shares)
}

// follow keeps the queue current from the change log: the freed slots leave
// it, then every changed view whose slot holds no record of its job joins it
// (nil changed names every view), and the changed views' indices are stamped
// in their records.
func (f *FIFO) follow(jobs []JobView, slots, changed, freed []int32) {
	f.gone += int32(len(freed))
	for _, slot := range freed {
		if k := int(slot) + 1; k < len(f.recs) && f.recs[k].live {
			f.unlink(int32(k))
		}
	}
	all := changed == nil
	n := len(changed)
	if all {
		n = len(jobs)
	}
	for c := 0; c < n; c++ {
		i := c
		if !all {
			i = int(changed[c])
		}
		j, k := jobs[i], slots[i]+1
		f.recs = GrowSlots(f.recs, int(k), len(jobs)+1)
		r := &f.recs[k]
		if seq := j.Seq(); !r.live || r.seq != seq {
			if r.live {
				f.unlink(k) // its owner left without the log saying so
			}
			r.seq = seq
			f.link(k)
		}
		r.at = int32(i) + f.gone
	}
}

// link files record k, its seq set, into the queue behind every job with a
// smaller seq, walking back from the tail.
func (f *FIFO) link(k int32) {
	at := f.recs[0].prev
	for at != 0 && f.recs[at].seq > f.recs[k].seq {
		at = f.recs[at].prev
	}
	next := f.recs[at].next
	r := &f.recs[k]
	r.prev, r.next, r.live = at, next, true
	f.recs[at].next = k
	f.recs[next].prev = k
}

// unlink takes record k out of the queue.
func (f *FIFO) unlink(k int32) {
	r := &f.recs[k]
	f.recs[r.prev].next = r.next
	f.recs[r.next].prev = r.prev
	r.live = false
}

// serve walks the queue from its head and grants each job min(ReadyDemand,
// capacity left), fillInOrder's grant in seq order, until capacity runs out.
// It grants only to a record the latest call's slot column names, with the
// view's seq unless follow has just checked every view's (all). A stale view
// index — the views moved as jobs left or arrived — is found by FindView from
// at less the departures logged since, the lowest it can be, or when a round's
// walks miss or pass as many views as the column holds, by re-stamping every
// record; a record still not named left unlogged, and leaves the queue.
func (f *FIFO) serve(capacity float64, jobs []JobView, slots []int32, all bool, shares *Shares) {
	budget, restamped := len(slots), false
	for k := f.recs[0].next; k != 0 && capacity > 0; {
		r := &f.recs[k]
		v := int(r.at - f.gone)
		if v < 0 || v >= len(slots) || slots[v] != k-1 {
			if v = int(FindView(slots, v, k-1, &budget)); v >= 0 {
				r.at = int32(v) + f.gone
				f.walks++
			}
		}
		if v < 0 || !all && jobs[v].Seq() != r.seq {
			if !restamped {
				for i, slot := range slots {
					f.recs[slot+1].at = int32(i) + f.gone
				}
				f.restamps, restamped = f.restamps+1, true
				continue
			}
			next := r.next
			f.unlink(k)
			k = next
			continue
		}
		if d := jobs[v].ReadyDemand(); d > 0 {
			x := d
			if capacity < x {
				x = capacity
			}
			shares.Add(v, x)
			capacity -= x
		}
		k = r.next
	}
}
