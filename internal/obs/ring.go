package obs

import (
	"math"
	"sync/atomic"
	"unsafe"
)

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
func (s *slot) pack(ev Event) {
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
// allocating; exactly one consumer goroutine drains concurrently (Drain).
// When the consumer falls behind, the producer overwrites the oldest
// records — flight-recorder semantics: the most recent capacity events
// always survive, and Drain reports how many were lost.
//
// Each slot is a per-slot seqlock: the producer bumps the slot's version to
// an odd value, stores the packed event, then publishes the even version
// that encodes the write index. A reader that observes a version change (or
// an odd version) discards the read, so overwritten records are detected,
// never misread.
//
// Ring is a Sink, so it attaches anywhere a Counters sink does. A sharded
// run serializes when any probe is attached, so the single-producer
// contract holds there too.
type Ring struct {
	emitter
	slots []slot
	mask  uint64
	// w is the producer cursor: the index of the next record to write.
	// Stored atomically so the consumer can bound its scan.
	w atomic.Uint64
	// r is the consumer cursor: the index of the next record to read.
	// Owned by the single consumer; no atomicity needed.
	r uint64
}

// NewRing returns a ring holding capacity events; capacity is rounded up to
// a power of two, minimum 16.
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	r := &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
	r.emitter = emitter{r}
	return r
}

// Recorded returns how many events the producer has recorded in total
// (including any since overwritten).
func (r *Ring) Recorded() uint64 { return r.w.Load() }

// Record implements Sink: it stores one event without locking or
// allocating. Producer side: must only ever be called from one goroutine at
// a time.
func (r *Ring) Record(ev Event) {
	w := r.w.Load()
	s := &r.slots[w&r.mask]
	s.seq.Store(w<<1 | 1)
	s.pack(ev)
	s.seq.Store((w + 1) << 1)
	r.w.Store(w + 1)
}

// Drain records every un-drained event into sink in recording order and
// returns how many were replayed and how many were lost to overwriting
// since the previous Drain. Consumer side: must only ever be called from
// one goroutine. sink may be nil to discard (advancing the cursor only).
func (r *Ring) Drain(sink Sink) (replayed, lost uint64) {
	var ev Event
	for {
		w := r.w.Load()
		if r.r == w {
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
		if sink != nil {
			sink.Record(ev)
		}
		replayed++
	}
}
