package substrate_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// fakeView is a minimal sched.JobView for kernel tests.
type fakeView struct{ id, seq int }

func (v fakeView) ID() int                    { return v.id }
func (v fakeView) Seq() int                   { return v.seq }
func (v fakeView) Priority() int              { return 1 }
func (v fakeView) Attained() float64          { return 0 }
func (v fakeView) Estimated() float64         { return 0 }
func (v fakeView) ReadyDemand() float64       { return 1 }
func (v fakeView) RemainingDemand() float64   { return 1 }
func (v fakeView) SizeHint() float64          { return 1 }
func (v fakeView) RemainingSizeHint() float64 { return 1 }

// fakePolicy counts plain Assign invocations.
type fakePolicy struct{ assigns int }

func (p *fakePolicy) Name() string { return "fake" }
func (p *fakePolicy) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	p.assigns++
	out := make(sched.Assignment, len(jobs))
	for _, j := range jobs {
		out[j.ID()] = 1
	}
	return out
}

// fakeBuffered adds the allocation-free assignment capability.
type fakeBuffered struct {
	fakePolicy
	intoCalls int
}

func (p *fakeBuffered) AssignInto(now, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	p.intoCalls++
	clear(out)
	for _, j := range jobs {
		out[j.ID()] = 2
	}
}

// fakeObserver is a stateful policy without horizon hints.
type fakeObserver struct {
	fakePolicy
	observes int
	lastNow  float64
}

func (p *fakeObserver) Observe(now float64, jobs []sched.JobView) {
	p.observes++
	p.lastNow = now
}

func admitAll(q *substrate.Queue[int]) (jobs, seqs []int) {
	q.Admit(func(j, seq int) {
		jobs = append(jobs, j)
		seqs = append(seqs, seq)
	})
	return jobs, seqs
}

func TestQueueUnlimited(t *testing.T) {
	q := substrate.NewQueue[int](0)
	for i := 10; i < 15; i++ {
		q.Push(i)
	}
	jobs, seqs := admitAll(q)
	if len(jobs) != 5 || q.Running() != 5 || q.Waiting() != 0 {
		t.Fatalf("unlimited admit released %d jobs, running=%d waiting=%d", len(jobs), q.Running(), q.Waiting())
	}
	for i := range jobs {
		if jobs[i] != 10+i || seqs[i] != i {
			t.Fatalf("release %d = (job %d, seq %d), want FIFO (job %d, seq %d)", i, jobs[i], seqs[i], 10+i, i)
		}
	}
}

func TestQueueLimitOne(t *testing.T) {
	q := substrate.NewQueue[int](1)
	q.Push(1)
	q.Push(2)
	jobs, _ := admitAll(q)
	if len(jobs) != 1 || jobs[0] != 1 || q.Waiting() != 1 {
		t.Fatalf("limit-1 admit released %v, waiting=%d", jobs, q.Waiting())
	}
	q.Done()
	jobs, seqs := admitAll(q)
	if len(jobs) != 1 || jobs[0] != 2 || seqs[0] != 1 {
		t.Fatalf("post-Done admit released %v seqs %v, want job 2 with seq 1", jobs, seqs)
	}
}

func TestQueueLimitAboveCount(t *testing.T) {
	q := substrate.NewQueue[int](100)
	q.Push(1)
	q.Push(2)
	if jobs, _ := admitAll(q); len(jobs) != 2 {
		t.Fatalf("limit above count should behave as unlimited, released %v", jobs)
	}
}

func TestQueueStuck(t *testing.T) {
	q := substrate.NewQueue[int](1)
	q.Push(1)
	q.Push(2)
	q.Push(3)
	admitAll(q)
	err := q.Stuck("fluid")
	want := "fluid: 2 jobs stuck in admission with empty cluster"
	if err == nil || err.Error() != want {
		t.Fatalf("Stuck = %v, want %q", err, want)
	}
}

// oneView is a round holding a single job's view and slot.
func oneView(id int) *substrate.ViewSet {
	var vs substrate.ViewSet
	vs.Begin(false, false)
	vs.AddSlot(fakeView{id: id}, 0)
	return &vs
}

func TestDriverBufferedDispatch(t *testing.T) {
	p := &fakeBuffered{}
	d := substrate.NewDriver(p)
	vs := oneView(7)
	s1 := d.Shares(0, 4, vs)[0]
	s2 := d.Shares(1, 4, vs)[0]
	if p.intoCalls != 2 || p.assigns != 0 {
		t.Fatalf("buffered dispatch: AssignInto called %d times, Assign %d; want 2, 0", p.intoCalls, p.assigns)
	}
	if s1 != 2 || s2 != 2 {
		t.Fatalf("buffered shares = %v / %v, want 2", s1, s2)
	}
}

func TestDriverPlainDispatch(t *testing.T) {
	p := &fakePolicy{}
	d := substrate.NewDriver(p)
	shares := d.Shares(0, 4, oneView(3))
	if p.assigns != 1 || shares[0] != 1 {
		t.Fatalf("plain dispatch: assigns=%d shares=%v", p.assigns, shares)
	}
	if d.Observes() {
		t.Fatal("stateless policy should need no observation")
	}
	if h := d.Horizon(0, &substrate.ViewSet{}); !math.IsInf(h, 1) {
		t.Fatalf("hintless Horizon = %v, want +Inf", h)
	}
}

// TestDriverPlainObserver: a stateful policy observes every skipped round a
// substrate replays, at the round's time; a round over no views reaches it
// not at all.
func TestDriverPlainObserver(t *testing.T) {
	p := &fakeObserver{}
	d := substrate.NewDriver(p)
	if !d.Observes() {
		t.Fatal("an Observer must be driven as a stateful policy")
	}
	var vs substrate.ViewSet
	for _, now := range []float64{1, 2, 3} {
		vs.Begin(false, false)
		vs.Add(fakeView{id: 1})
		d.Observe(now, &vs)
		if p.lastNow != now {
			t.Fatalf("observed at %v, want %v", p.lastNow, now)
		}
	}
	vs.Begin(false, false)
	d.Observe(4, &vs)
	if p.observes != 3 {
		t.Fatalf("observes = %d, want 3: one per round with views", p.observes)
	}
}

// bothForms is a policy with every optional capability in map form, which
// logs the calls it receives and answers from its arguments: a share equal to
// the job's ID, a horizon that adds the first job's share to now.
// The dense* types below add the dense forms one capability at a time — shares
// of ten times the slot, so the two forms' answers can be told apart.
type bothForms struct{ calls []string }

func (p *bothForms) Name() string { return "both" }

func (p *bothForms) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	out := sched.Assignment{}
	p.AssignInto(now, capacity, jobs, out)
	return out
}

func (p *bothForms) AssignInto(now, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	p.calls = append(p.calls, "AssignInto")
	clear(out)
	for _, j := range jobs {
		out[j.ID()] = float64(j.ID())
	}
}

func (p *bothForms) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	p.calls = append(p.calls, "Horizon")
	return now + alloc[jobs[0].ID()]
}

func (p *bothForms) Observe(now float64, jobs []sched.JobView) {
	p.calls = append(p.calls, "Observe")
}

type denseAssign struct{ *bothForms }

func (p denseAssign) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	p.calls = append(p.calls, "AssignDense")
	for i := range jobs {
		shares.Add(i, 10*float64(slots[i]))
	}
}

type denseHint struct{ *bothForms }

func (p denseHint) HorizonDense(now float64, jobs []sched.JobView, slots []int32, shares *sched.Shares) float64 {
	p.calls = append(p.calls, "HorizonDense")
	return now + shares.Col()[0]
}

type denseObserve struct{ *bothForms }

func (p denseObserve) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	p.calls = append(p.calls, "ObserveDense")
}

// TestDriverDenseDispatch: the Driver has one path, the dense forms. A policy
// with the dense form of every capability it has answers them itself — the
// share column is what AssignDense wrote, Horizon hands it back, Observe
// reaches ObserveDense. A policy with a partial dense set (no DenseHinter
// beside its map-form Hinter; no DenseObserver beside its Observer; no
// DenseAssigner at all) runs entirely through its map forms behind the one
// map→dense adapter: its map is read out into the share column, the same map
// is handed back to Horizon, and Observe reaches the map-form Observe.
func TestDriverDenseDispatch(t *testing.T) {
	full := func(p *bothForms) sched.Scheduler {
		return struct {
			*bothForms
			denseAssign
			denseHint
			denseObserve
		}{p, denseAssign{p}, denseHint{p}, denseObserve{p}}
	}
	noDenseHinter := func(p *bothForms) sched.Scheduler {
		return struct {
			*bothForms
			denseAssign
			denseObserve
		}{p, denseAssign{p}, denseObserve{p}}
	}
	noDenseObserver := func(p *bothForms) sched.Scheduler {
		return struct {
			*bothForms
			denseAssign
			denseHint
		}{p, denseAssign{p}, denseHint{p}}
	}
	mapOnly := func(p *bothForms) sched.Scheduler { return p }
	denseCalls := []string{"AssignDense", "HorizonDense", "ObserveDense"}
	mapCalls := []string{"AssignInto", "Horizon", "Observe"}
	for _, tc := range []struct {
		name  string
		wrap  func(*bothForms) sched.Scheduler
		want  []string
		share float64
	}{
		{"full dense set, slotted views", full, denseCalls, 30},
		{"no DenseHinter", noDenseHinter, mapCalls, 7},
		{"no DenseObserver", noDenseObserver, mapCalls, 7},
		{"map forms only", mapOnly, mapCalls, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &bothForms{}
			d := substrate.NewDriver(tc.wrap(p))
			var vs substrate.ViewSet
			vs.Begin(false, false)
			vs.AddSlot(fakeView{id: 7}, 3)
			shares := d.Shares(1, 4, &vs)
			if len(shares) != 1 || shares[0] != tc.share {
				t.Errorf("shares = %v, want [%v]", shares, tc.share)
			}
			if h := d.Horizon(1, &vs); h != 1+tc.share {
				t.Errorf("Horizon = %v, want %v", h, 1+tc.share)
			}
			d.Observe(2, &vs)
			if !slices.Equal(p.calls, tc.want) {
				t.Errorf("calls = %v, want %v", p.calls, tc.want)
			}
		})
	}
}

// TestViewSetSlots: slots count up from zero, the most recently freed is
// reissued first, and Reset rewinds the allocator for the next run.
func TestViewSetSlots(t *testing.T) {
	var vs substrate.ViewSet
	for want := int32(0); want < 3; want++ {
		if got := vs.TakeSlot(); got != want {
			t.Fatalf("TakeSlot = %d, want %d", got, want)
		}
	}
	vs.FreeSlot(0)
	vs.FreeSlot(2)
	if a, b, c := vs.TakeSlot(), vs.TakeSlot(), vs.TakeSlot(); a != 2 || b != 0 || c != 3 {
		t.Fatalf("after freeing 0 then 2, TakeSlot gave %d, %d, %d; want 2, 0, 3", a, b, c)
	}
	vs.FreeSlot(1)
	vs.Reset()
	if got := vs.TakeSlot(); got != 0 {
		t.Fatalf("TakeSlot after Reset = %d, want 0", got)
	}
}

// logSpy is a stateful dense policy that records the change log and the slot
// column of each call, and grants each view the log names (every view, when
// changed is nil) its slot + 1, in descending view order.
type logSpy struct {
	changed [][]int32
	freed   [][]int32
	slots   [][]int32
}

func (p *logSpy) Name() string { return "logspy" }
func (p *logSpy) Assign(float64, float64, []sched.JobView) sched.Assignment {
	panic("the driver calls the dense forms")
}
func (p *logSpy) Observe(float64, []sched.JobView) { panic("the driver calls the dense forms") }
func (p *logSpy) record(slots, changed, freed []int32) {
	if changed != nil {
		changed = append([]int32{}, changed...)
	}
	p.changed = append(p.changed, changed)
	p.freed = append(p.freed, append([]int32{}, freed...))
	p.slots = append(p.slots, append([]int32{}, slots...))
}
func (p *logSpy) AssignDense(_, _ float64, _ []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	p.record(slots, changed, freed)
	n := len(changed)
	if changed == nil {
		n = len(slots)
	}
	for k := n - 1; k >= 0; k-- {
		i := k
		if changed != nil {
			i = int(changed[k])
		}
		shares.Add(i, float64(slots[i]+1))
	}
}
func (p *logSpy) ObserveDense(_ float64, _ []sched.JobView, slots, changed, freed []int32) {
	p.record(slots, changed, freed)
}

// TestViewSetChangeLog: the driver hands the policy the slots freed since its
// previous call and, once the substrate marks views, the views marked since
// — every view until then — and clears the log; Begin drops the marks, an
// observation over no views hands on the departures alone, or nothing, and
// Reset forgets the marking.
// A registration edited in place — views added behind the others without a
// Begin, and cut out (ViewSet.Cut) keeping the rest in order — reaches the
// policy as the edits left it. Every answer lists, ascending, exactly the
// views the policy granted a share, whatever order it granted them in, and
// its column is zero elsewhere: the previous answer's grants are cleared.
func TestViewSetChangeLog(t *testing.T) {
	p := &logSpy{}
	d := substrate.NewDriver(p)
	var vs substrate.ViewSet
	var served [][]int32
	shares := func(now float64) {
		col, list := d.Shares(now, 1, &vs), vs.Served()
		served = append(served, append([]int32{}, list...))
		for i, x := range col {
			if granted := slices.Contains(list, int32(i)); granted != (x != 0) || granted && x != float64(p.slots[len(p.slots)-1][i]+1) {
				t.Fatalf("call at %v: share %v of view %d does not match the served list %v", now, x, i, list)
			}
		}
		if len(col) != vs.Len() || !slices.IsSorted(list) || len(slices.Compact(slices.Clone(list))) != len(list) {
			t.Fatalf("call at %v: %d shares for %d views, served %v", now, len(col), vs.Len(), list)
		}
	}
	register := func(ids ...int) {
		vs.Begin(false, false)
		for _, id := range ids {
			vs.AddSlot(fakeView{id: id}, int32(id))
		}
	}
	for range 3 {
		vs.TakeSlot()
	}
	register(0, 1, 2)
	shares(0) // nothing marked: every view
	vs.FreeSlot(1)
	register(0, 2)
	d.Observe(1, &vs) // nothing marked: every view, and slot 1
	vs.MarkChanged(1)
	shares(2) // view 1 alone
	shares(3) // nothing changed
	vs.FreeSlot(2)
	vs.MarkChanged(0) // dropped by the Begin below
	register(0)
	vs.MarkChanged(0)
	register()
	d.Observe(4, &vs) // no views: slot 2 alone
	d.Observe(4, &vs) // no views and nothing logged: the policy is not called
	register(0)
	vs.MarkChanged(0)
	shares(5) // view 0

	// Edits: two views join behind view 0 and are marked; then the middle one
	// leaves, cut out with its slot; then one more joins.
	for range 2 {
		slot := vs.TakeSlot()
		vs.AddSlot(fakeView{id: int(slot)}, slot)
	}
	vs.MarkChanged(1)
	vs.MarkChanged(2)
	shares(6) // views 1 and 2, slots 2 and 1
	vs.FreeSlot(2)
	vs.Cut([]int32{1})
	vs.MarkChanged(1)
	shares(7) // view 1, which holds slot 1 now, and slot 2
	slot := vs.TakeSlot()
	vs.AddSlot(fakeView{id: int(slot)}, slot)
	vs.Cut([]int32{0})
	vs.MarkChanged(1)
	shares(8) // view 1, slot 2 again: the first view is cut without a FreeSlot
	vs.Reset()
	vs.TakeSlot()
	register(0)
	shares(9) // a fresh run: every view again
	wantChanged := [][]int32{nil, nil, {1}, {}, {}, {0}, {1, 2}, {1}, {1}, nil}
	wantFreed := [][]int32{{}, {1}, {}, {}, {2}, {}, {}, {2}, {}, {}}
	wantSlots := [][]int32{{0, 1, 2}, {0, 2}, {0, 2}, {0, 2}, {}, {0}, {0, 2, 1}, {0, 1}, {1, 2}, {0}}
	wantServed := [][]int32{{0, 1, 2}, {1}, {}, {0}, {1, 2}, {1}, {1}, {0}}
	if !reflect.DeepEqual(p.changed, wantChanged) || !reflect.DeepEqual(p.freed, wantFreed) {
		t.Fatalf("the policy was handed changed %#v and freed %v; want %#v and %v", p.changed, p.freed, wantChanged, wantFreed)
	}
	if !reflect.DeepEqual(p.slots, wantSlots) || !reflect.DeepEqual(served, wantServed) {
		t.Fatalf("the policy was handed slots %v and served %v; want %v and %v", p.slots, served, wantSlots, wantServed)
	}
}

// TestViewSetReuse: Begin clears the views and, begun with demand, the
// demand map, keeping their storage for the next registration.
func TestViewSetReuse(t *testing.T) {
	var vs substrate.ViewSet
	vs.Begin(true, false)
	vs.Add(fakeView{id: 1})
	vs.SetDemand(1, 4)
	if vs.Len() != 1 || vs.Demand()[1] != 4 {
		t.Fatalf("round 1 state wrong: len=%d demand=%v", vs.Len(), vs.Demand())
	}
	vs.Begin(true, false)
	if vs.Len() != 0 || len(vs.Demand()) != 0 {
		t.Fatalf("Begin must clear the views and the demand map: len=%d demand=%v", vs.Len(), vs.Demand())
	}
	vs.Add(fakeView{id: 2})
	if vs.Len() != 1 {
		t.Fatalf("len=%d after one Add, want 1", vs.Len())
	}
}

func TestResultAccumulator(t *testing.T) {
	var r substrate.Result
	if r.MeanResponseTime() != 0 || r.Count() != 0 {
		t.Fatal("empty accumulator must report zero")
	}
	r.Record(1, 10)
	r.Record(2, 30)
	r.Record(1, 20)
	r.RecordSlowdown(2)
	r.RecordSlowdown(6)
	if got := r.MeanResponseTime(); got != 20 {
		t.Fatalf("mean = %v, want 20", got)
	}
	if rt := r.ResponseTimes(); len(rt) != 3 || rt[0] != 10 || rt[2] != 20 {
		t.Fatalf("ResponseTimes = %v", rt)
	}
	if sd := r.Slowdowns(); len(sd) != 2 || sd[0] != 2 || sd[1] != 6 {
		t.Fatalf("Slowdowns = %v", sd)
	}
	bm := r.BinMeans()
	if bm[1] != 15 || bm[2] != 30 {
		t.Fatalf("BinMeans = %v", bm)
	}
	// Returned slices are copies: mutating them must not corrupt the record.
	r.ResponseTimes()[0] = -1
	if got := r.MeanResponseTime(); got != 20 {
		t.Fatalf("mean after external mutation = %v, want 20", got)
	}
}

// cutBefore is Cut as it was before it moved the shorter side: every kept
// element behind gone[0] moves forward. TestCut holds Cut to it.
func cutBefore(s []int, gone []int32) []int {
	if len(gone) == 0 {
		return s
	}
	w := int(gone[0])
	for k, g := range gone {
		end := len(s)
		if k+1 < len(gone) {
			end = int(gone[k+1])
		}
		w += copy(s[w:], s[g+1:end])
	}
	clear(s[w:])
	return s[:w]
}

// TestCut: on random lengths and ascending gone lists, Cut keeps what
// cutBefore keeps, in the same order, and zeroes every element of the array
// outside the window it returns, so nothing stays pinned; and a ViewSet cut at
// the front takes as many views back without allocating, its windows sliding
// back to their arrays' start.
func TestCut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(48)
		var gone []int32
		p := rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				gone = append(gone, int32(i))
			}
		}
		s := make([]int, n)
		for i := range s {
			s[i] = i + 1
		}
		want := cutBefore(slices.Clone(s), gone)
		got := substrate.Cut(s, gone)
		head := cap(s) - cap(got)
		if !slices.Equal(got, want) {
			t.Fatalf("Cut(1..%d, %v) = %v; want %v", n, gone, got, want)
		}
		for i, x := range s {
			if (i < head || i >= head+len(got)) && x != 0 {
				t.Fatalf("Cut(1..%d, %v) left %d at %d outside its window [%d, %d): %v",
					n, gone, x, i, head, head+len(got), s)
			}
		}
	}

	views := make([]fakeView, 64)
	var vs substrate.ViewSet
	for i := range views {
		views[i] = fakeView{id: i, seq: i}
		vs.AddSlot(&views[i], vs.TakeSlot())
	}
	front, next := []int32{0, 1, 2}, 0
	allocs := testing.AllocsPerRun(100, func() {
		vs.Cut(front)
		for range front {
			vs.AddSlot(&views[next], int32(next))
			next = (next + 1) % len(views)
		}
	})
	if allocs != 0 || vs.Len() != len(views) {
		t.Errorf("cutting %d views at the front and adding as many: %v allocs, %d views; want 0, %d",
			len(front), allocs, vs.Len(), len(views))
	}
	// The slot column holds the views added last, in the order they came.
	spy := &logSpy{}
	substrate.NewDriver(spy).Shares(0, 1, &vs)
	for i, slot := range spy.slots[0] {
		if want := int32((next + i) % len(views)); slot != want {
			t.Fatalf("after the cuts, slot column %v; want it to start at %d and count up mod %d",
				spy.slots[0], next, len(views))
		}
	}
}
