// Package schedtest provides a fake sched.JobView for tests of scheduling
// policies and engines, and MapOnly, which hides a policy's dense forms.
package schedtest

import (
	"fmt"

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
// capabilities p has — sched.BufferedAssigner, Hinter, Observer,
// ObserveHinter and obs.ProbeSetter — and none of the dense forms, so
// substrate.Driver drives the same policy through its maps. It is the
// test-side twin of benchmark's wrapPolicy: a run with MapOnly(p) must equal
// the run with a bare p bit for bit. The capability set must be exact, because
// the Driver picks its round logic by type assertion; MapOnly panics on a set
// no policy in this repository has.
func MapOnly(p sched.Scheduler) sched.Scheduler {
	base := &mapOnly{p}
	_, buffered := p.(sched.BufferedAssigner)
	_, hinter := p.(sched.Hinter)
	_, observer := p.(sched.Observer)
	_, obsHinter := p.(sched.ObserveHinter)
	_, probed := p.(obs.ProbeSetter)
	type caps struct{ buffered, hinter, observer, obsHinter, probed bool }
	switch (caps{buffered, hinter, observer, obsHinter, probed}) {
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
	case caps{buffered: true, hinter: true, observer: true, probed: true}: // core.Adaptive
		return struct {
			*mapOnly
			mapBuffered
			mapHinter
			mapObserver
			mapProbed
		}{base, mapBuffered{base}, mapHinter{base}, mapObserver{base}, mapProbed{base}}
	case caps{true, true, true, true, true}: // LAS_MQ, sched.Blend, core.QueueRecorder
		return struct {
			*mapOnly
			mapBuffered
			mapHinter
			mapObserveHinter
			mapProbed
		}{base, mapBuffered{base}, mapHinter{base}, mapObserveHinter{mapObserver{base}}, mapProbed{base}}
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

type mapObserveHinter struct{ mapObserver }

func (m mapObserveHinter) ObserveHorizon(now float64, jobs []sched.JobView, rates sched.Assignment) float64 {
	return m.inner.(sched.ObserveHinter).ObserveHorizon(now, jobs, rates)
}

type mapProbed struct{ *mapOnly }

func (m mapProbed) SetProbe(p obs.Probe) { m.inner.(obs.ProbeSetter).SetProbe(p) }
