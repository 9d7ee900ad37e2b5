package sched

// The dense round contract is the second form of the optional capabilities
// in buffered.go: the same questions, asked and answered over slices parallel
// to the views instead of maps keyed by job ID. A substrate that issues slots
// (substrate.ViewSet.TakeSlot) hands the policy three parallel slices each
// round — jobs[i] is a view, slots[i] the job's slot, and shares[i] (or
// rates[i]) the number that the map forms file under jobs[i].ID().
//
// A slot is a small integer the substrate gives a job when it becomes
// schedulable and takes back when the job leaves: unique among the views of
// one round, below the peak number of schedulable jobs, and recycled. A
// stateful policy keeps its per-job record in an array indexed by slot, so no
// round hashes an ID. A slot may be reissued before the policy has run a
// round without its previous owner: the policy must compare the record's job
// ID with the view's and treat a mismatch as the old owner leaving and the
// new one arriving. Stateless policies ignore slots, and callers that have
// none (the map-form adapters in this package) pass nil.
//
// Every dense form is an alternative to a map form the policy also
// implements, and must make the same decisions bit for bit. substrate.Driver
// asks once, at construction: a policy is driven densely only when it
// implements DenseAssigner and the dense form of each of Hinter and Observer
// it has; otherwise every call goes through the map forms. One policy
// instance must be driven through one form for its whole run.

// DenseAssigner is the dense form of BufferedAssigner: AssignDense writes
// every element of shares (len(jobs); zero for an unserved job) with exactly
// the share AssignInto would file under that job's ID.
type DenseAssigner interface {
	AssignDense(now, capacity float64, jobs []JobView, slots []int32, shares []float64)
}

// DenseHinter is the dense form of Hinter: shares is the slice AssignDense
// just filled for the same jobs and slots.
type DenseHinter interface {
	HorizonDense(now float64, jobs []JobView, slots []int32, shares []float64) float64
}

// DenseObserver is the dense form of Observer and ObserveHinter: rates[i]
// bounds the growth rate of jobs[i]'s decision metric.
type DenseObserver interface {
	ObserveDense(now float64, jobs []JobView, slots []int32)
	ObserveHorizonDense(now float64, jobs []JobView, slots []int32, rates []float64) float64
}

// sizeShares returns *scratch resized to n, reusing its backing array.
func sizeShares(scratch *[]float64, n int) []float64 {
	if cap(*scratch) < n {
		*scratch = make([]float64, n)
	}
	return (*scratch)[:n]
}

// assignViaDense is the stateless policies' map-form AssignInto: the dense
// form into scratch, then into out.
func assignViaDense(p DenseAssigner, scratch *[]float64, now, capacity float64, jobs []JobView, out Assignment) {
	shares := sizeShares(scratch, len(jobs))
	p.AssignDense(now, capacity, jobs, nil, shares)
	sharesInto(jobs, shares, out)
}

// sharesInto empties out and files the nonzero shares under their job IDs —
// the map forms never filed a zero.
func sharesInto(jobs []JobView, shares []float64, out Assignment) {
	clearAssignment(out)
	for i, x := range shares {
		if x != 0 {
			out[jobs[i].ID()] = x
		}
	}
}
