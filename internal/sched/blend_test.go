package sched_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"lasmq/internal/sched"
)

func TestNewBlendValidation(t *testing.T) {
	if _, err := sched.NewBlend(nil, sched.NewFair(), 0.5); err == nil {
		t.Error("expected error for nil primary")
	}
	if _, err := sched.NewBlend(sched.NewLAS(), nil, 0.5); err == nil {
		t.Error("expected error for nil secondary")
	}
	if _, err := sched.NewBlend(sched.NewLAS(), sched.NewFair(), -0.1); err == nil {
		t.Error("expected error for theta < 0")
	}
	if _, err := sched.NewBlend(sched.NewLAS(), sched.NewFair(), 1.1); err == nil {
		t.Error("expected error for theta > 1")
	}
	if _, err := sched.NewBlend(sched.NewFIFO(), sched.NewFair(), math.NaN()); err == nil || !strings.Contains(err.Error(), "theta") {
		t.Errorf("NaN theta: got error %v, want one naming theta", err)
	}
}

func TestBlendEndpoints(t *testing.T) {
	jobs := views(
		job(1, 1, 1, 0, 100),
		job(2, 2, 1, 500, 100),
	)
	las := sched.NewLAS()
	fair := sched.NewFair()

	pure, err := sched.NewBlend(las, fair, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := las.Assign(0, 50, jobs)
	got := pure.Assign(0, 50, jobs)
	for id := range want {
		if got[id] != want[id] {
			t.Errorf("theta=0: job %d got %v, want primary's %v", id, got[id], want[id])
		}
	}

	full, err := sched.NewBlend(las, fair, 1)
	if err != nil {
		t.Fatal(err)
	}
	want = fair.Assign(0, 50, jobs)
	got = full.Assign(0, 50, jobs)
	for id := range want {
		if got[id] != want[id] {
			t.Errorf("theta=1: job %d got %v, want secondary's %v", id, got[id], want[id])
		}
	}
}

func TestBlendConvexCombination(t *testing.T) {
	jobs := views(
		job(1, 1, 1, 0, 100),
		job(2, 2, 1, 500, 100),
	)
	las := sched.NewLAS()
	fair := sched.NewFair()
	b, err := sched.NewBlend(las, fair, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	la := las.Assign(0, 50, jobs)
	fa := fair.Assign(0, 50, jobs)
	got := b.Assign(0, 50, jobs)
	for _, j := range jobs {
		id := j.ID()
		want := 0.75*la[id] + 0.25*fa[id]
		if math.Abs(got[id]-want) > 1e-9 {
			t.Errorf("job %d got %v, want %v", id, got[id], want)
		}
	}
	if got.Total() > 50+1e-9 {
		t.Errorf("blend exceeds capacity: %v", got.Total())
	}
}

func TestBlendInvariants(t *testing.T) {
	jobs := views(
		job(1, 1, 3, 120, 40),
		job(2, 2, 1, 0, 90),
		job(3, 3, 5, 700, 10),
	)
	for _, theta := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b, err := sched.NewBlend(sched.NewLAS(), sched.NewFair(), theta)
		if err != nil {
			t.Fatal(err)
		}
		alloc := b.Assign(0, 100, jobs)
		checkInvariants(t, b.Name(), 100, jobs, alloc)
	}
}

func TestBlendName(t *testing.T) {
	b, err := sched.NewBlend(sched.NewLAS(), sched.NewFair(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Name(); got != "BLEND(LAS,FAIR,0.50)" {
		t.Errorf("Name = %q", got)
	}
	if b.Theta() != 0.5 {
		t.Errorf("Theta = %v", b.Theta())
	}
}

func TestBlendHorizonDelegates(t *testing.T) {
	jobs := views(
		job(1, 1, 1, 0, 100),
		job(2, 2, 1, 50, 100),
	)
	las := sched.NewLAS()
	b, err := sched.NewBlend(las, sched.NewFair(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	alloc := b.Assign(0, 10, jobs)
	h := b.Horizon(0, jobs, alloc)
	if math.IsInf(h, 1) || h <= 0 {
		t.Errorf("blend horizon = %v, want finite positive (LAS catch-up)", h)
	}
	// Fair-only blend: no hinter components -> +Inf.
	ff, err := sched.NewBlend(sched.NewFair(), sched.NewFIFO(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h := ff.Horizon(0, jobs, alloc); !math.IsInf(h, 1) {
		t.Errorf("hinterless blend horizon = %v, want +Inf", h)
	}
}

// logSpy is a blend part that records the changed list of each dense call.
// Its map forms are never called.
type logSpy struct {
	assigned, observed [][]int32
}

func (s *logSpy) Name() string                                              { return "SPY" }
func (s *logSpy) Assign(float64, float64, []sched.JobView) sched.Assignment { return nil }
func (s *logSpy) AssignDense(_, _ float64, _ []sched.JobView, _, changed, _ []int32, _ *sched.Shares) {
	s.assigned = append(s.assigned, changed)
}

// observingLogSpy is a logSpy that observes.
type observingLogSpy struct{ logSpy }

func (s *observingLogSpy) Observe(float64, []sched.JobView) {}
func (s *observingLogSpy) ObserveDense(_ float64, _ []sched.JobView, _, changed, _ []int32) {
	s.observed = append(s.observed, changed)
}

// TestBlendLogsEachPartWhole: a part that does not observe misses the log of
// an observed call, which may name an arrival, so the blend's next
// AssignDense passes it nil changed (every view), while the observing part,
// which took the observed call, gets the call's own list; an AssignDense with
// no observed call before it passes both parts the list. At theta 0 and 1
// the one active part is driven the same way.
func TestBlendLogsEachPartWhole(t *testing.T) {
	jobs := views(job(1, 1, 1, 0, 1), job(2, 2, 1, 0, 1))
	slots := []int32{0, 1}
	for _, theta := range []float64{0, 0.5, 1} {
		for _, observerFirst := range []bool{true, false} {
			obsSpy, plain := &observingLogSpy{}, &logSpy{}
			var b *sched.Blend
			var err error
			if observerFirst {
				b, err = sched.NewBlend(obsSpy, plain, theta)
			} else {
				b, err = sched.NewBlend(plain, obsSpy, theta)
			}
			if err != nil {
				t.Fatal(err)
			}
			var shares sched.Shares
			round := func(changed []int32) {
				shares.Reset(len(jobs))
				b.AssignDense(0, 4, jobs, slots, changed, nil, &shares)
			}
			b.ObserveDense(0, jobs, slots, []int32{1}, nil)
			round([]int32{0})
			round([]int32{1})
			obsActive := theta != 1 && observerFirst || theta != 0 && !observerFirst
			plainActive := theta != 1 && !observerFirst || theta != 0 && observerFirst
			if obsActive {
				if len(obsSpy.observed) != 1 || len(obsSpy.assigned) != 2 ||
					!slices.Equal(obsSpy.assigned[0], []int32{0}) || !slices.Equal(obsSpy.assigned[1], []int32{1}) {
					t.Errorf("theta %v, observer first %v: the observing part took observed %v, assigned %v; want one observed call and [[0] [1]]",
						theta, observerFirst, obsSpy.observed, obsSpy.assigned)
				}
			}
			if plainActive {
				if len(plain.assigned) != 2 || plain.assigned[0] != nil || !slices.Equal(plain.assigned[1], []int32{1}) {
					t.Errorf("theta %v, observer first %v: the part that does not observe was assigned %v; want [[] [1]] with the first nil",
						theta, observerFirst, plain.assigned)
				}
			}
		}
	}
}
