// Package schedtest provides a fake sched.JobView for tests of scheduling
// policies and engines, MapOnly, which hides a policy's dense forms, Watch,
// which shows a test every answer a policy gives, and two policies written
// from scratch to hold those answers against: LiteralFIFO and LiteralLASMQ.
package schedtest

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// FakeJob is a configurable sched.JobView.
type FakeJob struct {
	JobID        int
	JobSeq       int
	JobPriority  int
	AttainedVal  float64
	EstimatedVal float64
	ReadyVal     float64
	RemainingVal float64
	SizeHintVal  float64
	RemSizeVal   float64
}

// ID implements sched.JobView.
func (f *FakeJob) ID() int { return f.JobID }

// Seq implements sched.JobView.
func (f *FakeJob) Seq() int { return f.JobSeq }

// Priority implements sched.JobView.
func (f *FakeJob) Priority() int { return f.JobPriority }

// Attained implements sched.JobView.
func (f *FakeJob) Attained() float64 { return f.AttainedVal }

// Estimated implements sched.JobView.
func (f *FakeJob) Estimated() float64 { return f.EstimatedVal }

// ReadyDemand implements sched.JobView.
func (f *FakeJob) ReadyDemand() float64 { return f.ReadyVal }

// RemainingDemand implements sched.JobView.
func (f *FakeJob) RemainingDemand() float64 { return f.RemainingVal }

// SizeHint implements sched.JobView.
func (f *FakeJob) SizeHint() float64 { return f.SizeHintVal }

// RemainingSizeHint implements sched.JobView.
func (f *FakeJob) RemainingSizeHint() float64 { return f.RemSizeVal }

// MapOnly returns p behind a wrapper that forwards exactly the map-form
// capabilities p has — sched.BufferedAssigner, Hinter, Observer and
// obs.ProbeSetter — and none of the dense forms, so substrate.Driver drives
// the same policy through its maps. It is the test-side twin of benchmark's
// wrapPolicy: a run with MapOnly(p) must equal the run with a bare p bit for
// bit. The capability set must be exact, because the Driver picks its round
// logic by type assertion; the inert sched.ObserveHinter, which the Driver
// never asks for, is not forwarded. MapOnly panics on a set no policy in this
// repository has.
func MapOnly(p sched.Scheduler) sched.Scheduler {
	base := &mapOnly{p}
	_, buffered := p.(sched.BufferedAssigner)
	_, hinter := p.(sched.Hinter)
	_, observer := p.(sched.Observer)
	_, probed := p.(obs.ProbeSetter)
	type caps struct{ buffered, hinter, observer, probed bool }
	switch (caps{buffered, hinter, observer, probed}) {
	case caps{}:
		return base
	case caps{buffered: true}: // FIFO, FAIR, PS, SJF, SRTF
		return struct {
			*mapOnly
			mapBuffered
		}{base, mapBuffered{base}}
	case caps{buffered: true, hinter: true}: // LAS, GITTINS
		return struct {
			*mapOnly
			mapBuffered
			mapHinter
		}{base, mapBuffered{base}, mapHinter{base}}
	case caps{buffered: true, hinter: true, observer: true}: // SRPT
		return struct {
			*mapOnly
			mapBuffered
			mapHinter
			mapObserver
		}{base, mapBuffered{base}, mapHinter{base}, mapObserver{base}}
	case caps{true, true, true, true}: // LAS_MQ, core.Adaptive, sched.Blend
		return struct {
			*mapOnly
			mapBuffered
			mapHinter
			mapObserver
			mapProbed
		}{base, mapBuffered{base}, mapHinter{base}, mapObserver{base}, mapProbed{base}}
	}
	panic(fmt.Sprintf("schedtest.MapOnly: %s has a capability set no wrapper forwards exactly", p.Name()))
}

type mapOnly struct{ inner sched.Scheduler }

func (m *mapOnly) Name() string { return m.inner.Name() }

func (m *mapOnly) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	return m.inner.Assign(now, capacity, jobs)
}

type mapBuffered struct{ *mapOnly }

func (m mapBuffered) AssignInto(now, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	m.inner.(sched.BufferedAssigner).AssignInto(now, capacity, jobs, out)
}

type mapHinter struct{ *mapOnly }

func (m mapHinter) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	return m.inner.(sched.Hinter).Horizon(now, jobs, alloc)
}

type mapObserver struct{ *mapOnly }

func (m mapObserver) Observe(now float64, jobs []sched.JobView) {
	m.inner.(sched.Observer).Observe(now, jobs)
}

type mapProbed struct{ *mapOnly }

func (m mapProbed) SetProbe(p obs.Probe) { m.inner.(obs.ProbeSetter).SetProbe(p) }

// Call is one call of a policy's dense forms as Watch shows it: an
// AssignDense, with the answer it left in Shares, or an ObserveDense, with
// Shares nil. The slices are the call's; they are valid during the check.
type Call struct {
	Now, Capacity         float64
	Jobs                  []sched.JobView
	Slots, Changed, Freed []int32
	Shares                *sched.Shares
}

// Check is what Watch shows each call.
type Check func(c *Call)

// Watch returns p behind a wrapper that drives p's dense forms — p's own, or
// for a map-only p the map adapter sched.DenseForms builds — and hands check
// each call: each AssignDense with the answer as it leaves it, the answer
// substrate.Driver.Shares and ViewSet.Served read, and each ObserveDense. The
// wrapper has every dense form and exactly p's map-form capabilities
// (forwarded to p), which decide what sched.DenseForms resolves; so a
// substrate drives it as it drives p, and a run with Watch(p) equals the run
// with p bit for bit. A nil check watches nothing: Watch returns p. Like
// MapOnly, it panics on a capability set no policy here has.
func Watch(p sched.Scheduler, check Check) sched.Scheduler {
	if check == nil {
		return p
	}
	m, w := &mapOnly{p}, &watchDense{check: check}
	w.a, w.h, w.o = sched.DenseForms(p)
	_, probed := p.(obs.ProbeSetter)
	type caps struct{ hinter, observer, probed bool }
	switch (caps{w.h != nil, w.o != nil, probed}) {
	case caps{}: // FIFO, FAIR, PS, SJF, SRTF
		return struct {
			*mapOnly
			*watchDense
		}{m, w}
	case caps{hinter: true}: // LAS, GITTINS
		return struct {
			*mapOnly
			*watchDense
			mapHinter
		}{m, w, mapHinter{m}}
	case caps{hinter: true, observer: true}: // SRPT
		return struct {
			*mapOnly
			*watchDense
			mapHinter
			mapObserver
		}{m, w, mapHinter{m}, mapObserver{m}}
	case caps{true, true, true}: // LAS_MQ, core.Adaptive, sched.Blend
		return struct {
			*mapOnly
			*watchDense
			mapHinter
			mapObserver
			mapProbed
		}{m, w, mapHinter{m}, mapObserver{m}, mapProbed{m}}
	}
	panic(fmt.Sprintf("schedtest.Watch: %s has a capability set no wrapper forwards exactly", p.Name()))
}

// watchDense is Watch's dense forms: p's, with check called on each call.
type watchDense struct {
	a     sched.DenseAssigner
	h     sched.DenseHinter
	o     sched.DenseObserver
	check Check
	call  Call
}

func (w *watchDense) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	w.a.AssignDense(now, capacity, jobs, slots, changed, freed, shares)
	w.call = Call{now, capacity, jobs, slots, changed, freed, shares}
	w.check(&w.call)
}

func (w *watchDense) HorizonDense(now float64, jobs []sched.JobView, slots []int32, shares *sched.Shares) float64 {
	return w.h.HorizonDense(now, jobs, slots, shares)
}

func (w *watchDense) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	w.o.ObserveDense(now, jobs, slots, changed, freed)
	w.call = Call{now, 0, jobs, slots, changed, freed, nil}
	w.check(&w.call)
}

// AnswerError reports how an answer over n views breaks the sparse contract,
// or nil: its column must have n entries, its served list must be strictly
// ascending and name exactly the views whose share is nonzero, and every
// other share must be zero.
func AnswerError(n int, shares *sched.Shares) error {
	col, served := shares.Col(), shares.Served()
	if len(col) != n {
		return fmt.Errorf("the column holds %d shares for %d views", len(col), n)
	}
	for k, i := range served {
		if k > 0 && i <= served[k-1] {
			return fmt.Errorf("served list %v is not strictly ascending", served)
		}
		if i < 0 || int(i) >= n || col[i] == 0 {
			return fmt.Errorf("served list names view %d, whose share is not a nonzero one of %d", i, n)
		}
	}
	nonzero := 0
	for _, x := range col {
		if x != 0 {
			nonzero++
		}
	}
	if nonzero != len(served) {
		return fmt.Errorf("%d views hold a nonzero share, the served list names %d", nonzero, len(served))
	}
	return nil
}

// LiteralFIFO is FIFO written from its definition, for tests to hold a
// policy's answers against: the views sorted by Seq, each granted
// min(ReadyDemand, capacity left) in that order. col[i] is view i's share.
func LiteralFIFO(capacity float64, jobs []sched.JobView) (col []float64) {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(jobs[a].Seq(), jobs[b].Seq()) })
	col = make([]float64, len(jobs))
	for _, i := range order {
		if d := jobs[i].ReadyDemand(); capacity > 0 && d > 0 {
			col[i] = min(d, capacity)
			capacity -= col[i]
		}
	}
	return col
}

// FIFOError reports how an answer over jobs breaks the sparse contract
// (AnswerError) or differs from LiteralFIFO's bit for bit, or nil.
func FIFOError(capacity float64, jobs []sched.JobView, shares *sched.Shares) error {
	if err := AnswerError(len(jobs), shares); err != nil {
		return err
	}
	got := shares.Col()
	for i, want := range LiteralFIFO(capacity, jobs) {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			return fmt.Errorf("view %d (job %d, seq %d) gets %v of capacity %v, the literal FIFO grants %v",
				i, jobs[i].ID(), jobs[i].Seq(), got[i], capacity, want)
		}
	}
	return nil
}
