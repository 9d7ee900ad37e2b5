package obs

import (
	"sync"
	"testing"
	"unsafe"
)

// TestRingSlotLayout pins the packed-record claim: one Event is 48 bytes
// and one ring slot exactly one 64-byte cache line (also asserted at
// compile time in ring.go).
func TestRingSlotLayout(t *testing.T) {
	if s := unsafe.Sizeof(Event{}); s != 48 {
		t.Fatalf("Event is %d bytes, want 48", s)
	}
	if s := unsafe.Sizeof(slot{}); s != 64 {
		t.Fatalf("slot is %d bytes, want 64", s)
	}
}

// emitAll drives every Probe method once with distinct payloads and returns
// the expected packed events in order.
func emitAll(p Probe) []Event {
	p.JobSubmitted(1, 2)
	p.JobAdmitted(3, 4, 5.5)
	p.JobStarted(6, 7)
	p.StageDone(8, 9, 10)
	p.JobDone(11, 12, 13.5)
	p.TaskStart(14, 15, 16, 17, 18, true)
	p.TaskDone(19, 20, 21, 22, 23.5, false)
	p.TaskFail(24, 25, 26, 27, 28.5)
	p.QueueEnter(29, 30, 31)
	p.QueueDemote(32, 33, 34, 35, 36.5)
	p.QueueExit(37, 38, 39)
	p.ThresholdRefit(40, 41.5, 42.5)
	p.RoundExecuted(43, 44)
	p.RoundSkipped(45, true)
	p.ArenaReuse(48, 49, true)
	p.SlabStats(50, 51, 52, 53)
	return []Event{
		{Kind: KindJobSubmitted, T: 1, A: 2},
		{Kind: KindJobAdmitted, T: 3, A: 4, F: 5.5},
		{Kind: KindJobStarted, T: 6, A: 7},
		{Kind: KindStageDone, T: 8, A: 9, B: 10},
		{Kind: KindJobDone, T: 11, A: 12, F: 13.5},
		{Kind: KindTaskStart, T: 14, A: 15, B: 16, C: 17, D: 18, Flags: FlagTrue},
		{Kind: KindTaskDone, T: 19, A: 20, B: 21, C: 22, F: 23.5},
		{Kind: KindTaskFail, T: 24, A: 25, B: 26, C: 27, F: 28.5},
		{Kind: KindQueueEnter, T: 29, A: 30, B: 31},
		{Kind: KindQueueDemote, T: 32, A: 33, B: 34, C: 35, F: 36.5},
		{Kind: KindQueueExit, T: 37, A: 38, B: 39},
		{Kind: KindThresholdRefit, T: 40, F: 41.5, G: 42.5},
		{Kind: KindRoundExecuted, T: 43, A: 44},
		{Kind: KindRoundSkipped, T: 45, Flags: FlagTrue},
		{Kind: KindArenaReuse, A: 48, B: 49, Flags: FlagTrue},
		{Kind: KindSlabStats, T: 50, A: 51, B: 52, C: 53},
	}
}

// sliceSink collects the events a Drain replays, in replay order.
type sliceSink struct {
	Nop
	events []Event
}

func (s *sliceSink) Record(ev Event) { s.events = append(s.events, ev) }

// TestRingPackUnpackRoundTrip drives every probe method through the ring
// and checks the drained events decode each payload exactly.
func TestRingPackUnpackRoundTrip(t *testing.T) {
	r := NewRing(64)
	want := emitAll(r)
	var got sliceSink
	r.Drain(&got)
	if len(got.events) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got.events), len(want))
	}
	for i := range want {
		if got.events[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got.events[i], want[i])
		}
	}
}

// TestRingDrainRoundTrip drains a ring into a second ring and that one into
// a slice; both event streams must match, proving the slot unpacking
// inverts the packing for every kind.
func TestRingDrainRoundTrip(t *testing.T) {
	src := NewRing(64)
	want := emitAll(src)
	dst := NewRing(64)
	replayed, lost := src.Drain(dst)
	if lost != 0 || replayed != uint64(len(want)) {
		t.Fatalf("Drain = (%d, %d), want (%d, 0)", replayed, lost, len(want))
	}
	var got sliceSink
	dst.Drain(&got)
	if len(got.events) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got.events), len(want))
	}
	for i := range want {
		if got.events[i] != want[i] {
			t.Fatalf("replayed event %d: got %+v, want %+v", i, got.events[i], want[i])
		}
	}
	// A second drain is a no-op.
	if n, _ := src.Drain(nil); n != 0 {
		t.Fatalf("second Drain replayed %d events, want 0", n)
	}
}

// TestRingOverwriteKeepsNewest pins the flight-recorder semantics: with no
// consumer, producing past capacity drops the oldest records, keeps the
// newest capacity of them in order, and Drain reports the loss exactly once.
func TestRingOverwriteKeepsNewest(t *testing.T) {
	const capacity = 16 // a power of two: NewRing keeps it as is
	r := NewRing(capacity)
	n := uint64(3*capacity + 5)
	for i := uint64(0); i < n; i++ {
		r.RoundExecuted(float64(i), int(i))
	}
	var got sliceSink
	replayed, lost := r.Drain(&got)
	if replayed != capacity || lost != n-capacity {
		t.Fatalf("Drain = (%d, %d), want (%d, %d)", replayed, lost, capacity, n-capacity)
	}
	for k, ev := range got.events {
		if want := n - capacity + uint64(k); ev.T != float64(want) {
			t.Fatalf("drained[%d].T = %g, want %d (newest %d must survive)", k, ev.T, want, capacity)
		}
	}
	// The loss is reported once: a second Drain neither replays nor loses.
	if replayed, lost := r.Drain(&got); replayed != 0 || lost != 0 {
		t.Fatalf("second Drain = (%d, %d), want (0, 0)", replayed, lost)
	}
	if r.Recorded() != n {
		t.Fatalf("Recorded() = %d, want %d", r.Recorded(), n)
	}
}

// TestRingConcurrentDrain runs the single producer against a concurrent
// consumer goroutine: every record is either replayed intact (valid kind,
// consistent payload) or reported lost — never torn. Run under -race this
// also proves the seqlock publication is data-race-free.
func TestRingConcurrentDrain(t *testing.T) {
	r := NewRing(64)
	const n = 200000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			r.JobDone(float64(i), i, float64(i)+0.5)
		}
	}()
	var replayed, lost uint64
	check := checkSink{t: t}
	for replayed+lost < n {
		got, dropped := r.Drain(&check)
		replayed += got
		lost += dropped
	}
	wg.Wait()
	got, dropped := r.Drain(&check)
	replayed += got
	lost += dropped
	if replayed+lost != n {
		t.Fatalf("replayed %d + lost %d != produced %d", replayed, lost, n)
	}
	if replayed == 0 {
		t.Fatal("consumer replayed nothing")
	}
}

// checkSink asserts every replayed record is internally consistent with
// the producer's encoding in TestRingConcurrentDrain.
type checkSink struct {
	Nop
	t    *testing.T
	last float64
}

func (c *checkSink) Record(ev Event) {
	if ev.Kind != KindJobDone || float64(ev.A) != ev.T || ev.F != ev.T+0.5 {
		c.t.Errorf("torn record: %+v", ev)
	}
	if ev.T < c.last {
		c.t.Errorf("out-of-order replay: %g after %g", ev.T, c.last)
	}
	c.last = ev.T
}

// TestZeroAllocRingRecord is part of the probe-gate: recording into the
// ring must not allocate on the steady-state path.
func TestZeroAllocRingRecord(t *testing.T) {
	r := NewRing(1024)
	if avg := testing.AllocsPerRun(1000, func() {
		r.JobSubmitted(1, 2)
		r.TaskDone(3, 4, 5, 6, 2.5, false)
		r.RoundExecuted(7, 8)
	}); avg != 0 {
		t.Fatalf("ring record path allocates %.1f allocs/op, want 0", avg)
	}
}
