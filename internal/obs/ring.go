package obs

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Event is one probe event packed into a fixed-size scalar record: no
// interface boxing, no per-event allocation, one record per cache line once
// padded into a ring slot. Kind selects the probe method; T is the event's
// virtual timestamp; F and G carry float payloads (waited, response, start,
// attained, first/step); A..D carry integer payloads (job, stage, task,
// containers, queue indices, counts); Flags carries the event's booleans.
type Event struct {
	T     float64 // virtual time ("now"); unused by ArenaReuse
	F     float64 // first float payload (waited / response / start / attained / first)
	G     float64 // second float payload (ThresholdRefit step)
	A     int32   // first int payload (job / pending / jobs / live)
	B     int32   // second int payload (stage / queue / from / tasks / peak)
	C     int32   // third int payload (task / to / recycled)
	D     int32   // fourth int payload (containers)
	Kind  uint8
	Flags uint8
	_     [6]byte
}

// Event kinds, one per Probe method.
const (
	KindJobSubmitted uint8 = iota + 1
	KindJobAdmitted
	KindJobStarted
	KindStageDone
	KindJobDone
	KindTaskStart
	KindTaskDone
	KindTaskFail
	KindQueueEnter
	KindQueueDemote
	KindQueueExit
	KindThresholdRefit
	KindRoundExecuted
	KindRoundSkipped
	KindArenaReuse
	KindSlabStats
)

// FlagTrue is the single boolean payload bit: speculative (TaskStart,
// TaskDone), observed (RoundSkipped), reused (ArenaReuse).
const FlagTrue uint8 = 1

// Apply replays the event into p, invoking the probe method it was packed
// from. It is how a drained ring feeds downstream sinks (Counters,
// Histograms, Series) without those sinks knowing about the ring.
func (e *Event) Apply(p Probe) {
	switch e.Kind {
	case KindJobSubmitted:
		p.JobSubmitted(e.T, int(e.A))
	case KindJobAdmitted:
		p.JobAdmitted(e.T, int(e.A), e.F)
	case KindJobStarted:
		p.JobStarted(e.T, int(e.A))
	case KindStageDone:
		p.StageDone(e.T, int(e.A), int(e.B))
	case KindJobDone:
		p.JobDone(e.T, int(e.A), e.F)
	case KindTaskStart:
		p.TaskStart(e.T, int(e.A), int(e.B), int(e.C), int(e.D), e.Flags&FlagTrue != 0)
	case KindTaskDone:
		p.TaskDone(e.T, int(e.A), int(e.B), int(e.C), e.F, e.Flags&FlagTrue != 0)
	case KindTaskFail:
		p.TaskFail(e.T, int(e.A), int(e.B), int(e.C), e.F)
	case KindQueueEnter:
		p.QueueEnter(e.T, int(e.A), int(e.B))
	case KindQueueDemote:
		p.QueueDemote(e.T, int(e.A), int(e.B), int(e.C), e.F)
	case KindQueueExit:
		p.QueueExit(e.T, int(e.A), int(e.B))
	case KindThresholdRefit:
		p.ThresholdRefit(e.T, e.F, e.G)
	case KindRoundExecuted:
		p.RoundExecuted(e.T, int(e.A))
	case KindRoundSkipped:
		p.RoundSkipped(e.T, e.Flags&FlagTrue != 0)
	case KindArenaReuse:
		p.ArenaReuse(int(e.A), int(e.B), e.Flags&FlagTrue != 0)
	case KindSlabStats:
		p.SlabStats(e.T, int(e.A), int(e.B), int(e.C))
	}
}

// slot is one ring cell: a seqlock version word plus the event packed into
// six atomic words, padded to exactly one 64-byte cache line. The event
// words are stored atomically (not as a raw Event) so a concurrent reader
// never races the writer in the memory model's sense; the version word is
// what detects torn or overwritten reads. seq holds (index+1)<<1 after
// write index's record is complete, and an odd value while it is being
// written.
type slot struct {
	seq   atomic.Uint64
	words [6]atomic.Uint64
	_     [8]byte
}

// Compile-time layout pins: a packed Event is 48 bytes, a slot exactly one
// 64-byte cache line. Either drifting breaks the one-line-per-record claim,
// so the build fails if they do.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(Event{})-48]
	_ = [1]struct{}{}[unsafe.Sizeof(slot{})-64]
)

// pack encodes an Event into a slot's six words.
func (s *slot) pack(ev *Event) {
	s.words[0].Store(math.Float64bits(ev.T))
	s.words[1].Store(math.Float64bits(ev.F))
	s.words[2].Store(math.Float64bits(ev.G))
	s.words[3].Store(uint64(uint32(ev.A))<<32 | uint64(uint32(ev.B)))
	s.words[4].Store(uint64(uint32(ev.C))<<32 | uint64(uint32(ev.D)))
	s.words[5].Store(uint64(ev.Kind)<<8 | uint64(ev.Flags))
}

// unpack decodes a slot's six words into ev.
func (s *slot) unpack(ev *Event) {
	ev.T = math.Float64frombits(s.words[0].Load())
	ev.F = math.Float64frombits(s.words[1].Load())
	ev.G = math.Float64frombits(s.words[2].Load())
	ab := s.words[3].Load()
	ev.A = int32(uint32(ab >> 32))
	ev.B = int32(uint32(ab))
	cd := s.words[4].Load()
	ev.C = int32(uint32(cd >> 32))
	ev.D = int32(uint32(cd))
	kf := s.words[5].Load()
	ev.Kind = uint8(kf >> 8)
	ev.Flags = uint8(kf)
}

// Ring is a fixed-capacity single-producer lock-free flight recorder for
// probe events. The producer (the simulation or resource-manager goroutine
// the probe is attached to) records without taking any lock and without
// allocating; exactly one consumer goroutine drains concurrently (Drain),
// or the owner dumps the retained tail after the run (Tail). When the
// consumer falls behind, the producer overwrites the oldest records —
// flight-recorder semantics: the most recent Cap() events always survive,
// and Drain reports how many were dropped.
//
// Each slot is a per-slot seqlock: the producer bumps the slot's version to
// an odd value, stores the packed event, then publishes the even version
// that encodes the write index. A reader that observes a version change (or
// an odd version) discards the read, so overwritten records are detected,
// never misread.
//
// Ring implements Probe, so it attaches anywhere a Counters sink does. It
// deliberately does not implement ShardSink: a sharded run serializes when
// any probe is attached, so the single-producer contract holds there too.
type Ring struct {
	slots []slot
	mask  uint64
	// w is the producer cursor: the index of the next record to write.
	// Stored atomically so the consumer can bound its scan.
	w atomic.Uint64
	// r is the consumer cursor: the index of the next record to read.
	// Owned by the single consumer; no atomicity needed.
	r uint64
	// dropped accumulates records overwritten before the consumer reached
	// them, maintained by the consumer during Drain.
	dropped uint64
}

// NewRing returns a ring holding capacity events; capacity is rounded up to
// a power of two, minimum 16.
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Cap returns the ring's slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// Recorded returns how many events the producer has recorded in total
// (including any since overwritten).
func (r *Ring) Recorded() uint64 { return r.w.Load() }

// Dropped returns how many records were overwritten before being drained.
// Only meaningful on the consumer side, after Drain calls.
func (r *Ring) Dropped() uint64 { return r.dropped }

// push records one event. Producer side: must only ever be called from one
// goroutine at a time.
func (r *Ring) push(ev *Event) {
	w := r.w.Load()
	s := &r.slots[w&r.mask]
	s.seq.Store(w<<1 | 1)
	s.pack(ev)
	s.seq.Store((w + 1) << 1)
	r.w.Store(w + 1)
}

// Drain replays every un-drained record into p in recording order and
// returns how many were replayed and how many were lost to overwriting
// since the previous Drain. Consumer side: must only ever be called from
// one goroutine. p may be nil to discard (advancing the cursor only).
func (r *Ring) Drain(p Probe) (replayed, lost uint64) {
	var ev Event
	for {
		w := r.w.Load()
		if r.r == w {
			r.dropped += lost
			return replayed, lost
		}
		// The producer may have lapped us: everything older than w-cap is
		// already overwritten (or mid-overwrite). Skip straight past it.
		if cap := uint64(len(r.slots)); w-r.r > cap {
			lost += w - cap - r.r
			r.r = w - cap
		}
		i := r.r
		s := &r.slots[i&r.mask]
		want := (i + 1) << 1
		if v := s.seq.Load(); v != want {
			if v > want {
				// Overwritten (or being overwritten) while we approached it;
				// re-derive the cursor from the producer position.
				continue
			}
			// v < want: record i not published yet (producer is mid-write
			// after bumping w is impossible — w is stored after seq — so
			// this means we raced the odd mark; retry).
			continue
		}
		s.unpack(&ev)
		if s.seq.Load() != want {
			continue // torn: producer lapped us mid-copy
		}
		r.r = i + 1
		if p != nil {
			ev.Apply(p)
		}
		replayed++
	}
}

// Tail appends the retained records (oldest first) to buf and returns it.
// It is a post-run accessor for single-threaded use — call it only once the
// producer has stopped; concurrent production would tear the scan.
func (r *Ring) Tail(buf []Event) []Event {
	w := r.w.Load()
	lo := r.r
	if cap := uint64(len(r.slots)); w-lo > cap {
		lo = w - cap
	}
	for i := lo; i < w; i++ {
		var ev Event
		r.slots[i&r.mask].unpack(&ev)
		buf = append(buf, ev)
	}
	return buf
}

// Probe implementation: pack scalars into an Event and push. Every method
// is allocation-free (enforced by the probe-gate zero-alloc test).

func (r *Ring) JobSubmitted(now float64, job int) {
	r.push(&Event{Kind: KindJobSubmitted, T: now, A: int32(job)})
}

func (r *Ring) JobAdmitted(now float64, job int, waited float64) {
	r.push(&Event{Kind: KindJobAdmitted, T: now, A: int32(job), F: waited})
}

func (r *Ring) JobStarted(now float64, job int) {
	r.push(&Event{Kind: KindJobStarted, T: now, A: int32(job)})
}

func (r *Ring) StageDone(now float64, job, stage int) {
	r.push(&Event{Kind: KindStageDone, T: now, A: int32(job), B: int32(stage)})
}

func (r *Ring) JobDone(now float64, job int, response float64) {
	r.push(&Event{Kind: KindJobDone, T: now, A: int32(job), F: response})
}

func (r *Ring) TaskStart(now float64, job, stage, task, containers int, speculative bool) {
	r.push(&Event{Kind: KindTaskStart, T: now, A: int32(job), B: int32(stage),
		C: int32(task), D: int32(containers), Flags: boolFlag(speculative)})
}

func (r *Ring) TaskDone(now float64, job, stage, task int, start float64, speculative bool) {
	r.push(&Event{Kind: KindTaskDone, T: now, A: int32(job), B: int32(stage),
		C: int32(task), F: start, Flags: boolFlag(speculative)})
}

func (r *Ring) TaskFail(now float64, job, stage, task int, start float64) {
	r.push(&Event{Kind: KindTaskFail, T: now, A: int32(job), B: int32(stage),
		C: int32(task), F: start})
}

func (r *Ring) QueueEnter(now float64, job, queue int) {
	r.push(&Event{Kind: KindQueueEnter, T: now, A: int32(job), B: int32(queue)})
}

func (r *Ring) QueueDemote(now float64, job, from, to int, attained float64) {
	r.push(&Event{Kind: KindQueueDemote, T: now, A: int32(job), B: int32(from),
		C: int32(to), F: attained})
}

func (r *Ring) QueueExit(now float64, job, queue int) {
	r.push(&Event{Kind: KindQueueExit, T: now, A: int32(job), B: int32(queue)})
}

func (r *Ring) ThresholdRefit(now, first, step float64) {
	r.push(&Event{Kind: KindThresholdRefit, T: now, F: first, G: step})
}

func (r *Ring) RoundExecuted(now float64, jobs int) {
	r.push(&Event{Kind: KindRoundExecuted, T: now, A: int32(jobs)})
}

func (r *Ring) RoundSkipped(now float64, observed bool) {
	r.push(&Event{Kind: KindRoundSkipped, T: now, Flags: boolFlag(observed)})
}

func (r *Ring) ArenaReuse(jobs, tasks int, reused bool) {
	r.push(&Event{Kind: KindArenaReuse, A: int32(jobs), B: int32(tasks), Flags: boolFlag(reused)})
}

func (r *Ring) SlabStats(now float64, live, peak, recycled int) {
	r.push(&Event{Kind: KindSlabStats, T: now, A: int32(live), B: int32(peak), C: int32(recycled)})
}

func boolFlag(b bool) uint8 {
	if b {
		return FlagTrue
	}
	return 0
}
