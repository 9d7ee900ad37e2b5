package obs

import "testing"

func TestForShardNilStaysNil(t *testing.T) {
	if p := ForShard(nil, 3); p != nil {
		t.Fatalf("ForShard(nil) = %v, want nil (zero-overhead contract)", p)
	}
}

func TestForShardPassesThroughPlainProbes(t *testing.T) {
	var plain Nop
	if p := ForShard(plain, 2); p != Probe(plain) {
		t.Fatalf("plain probe should pass through unchanged, got %T", p)
	}
}

func TestCountersShardProbe(t *testing.T) {
	c := NewCounters()
	p0 := ForShard(Probe(c), 0)
	p1 := ForShard(Probe(c), 1)

	p0.SlabStats(0, 0, 100, 7)
	p0.RoundExecuted(0, 3)
	p1.SlabStats(0, 0, 40, 5)
	p1.RoundExecuted(0, 2)
	p1.RoundSkipped(0, false)

	global := c.Snapshot()
	if global.SlabPeakLive != 100 || global.SlabRecycled != 12 {
		t.Fatalf("global slab peak/recycled = %d/%d, want 100/12", global.SlabPeakLive, global.SlabRecycled)
	}
	if global.RoundsExecuted != 2 || global.RoundsSkipped != 1 {
		t.Fatalf("global rounds = %d/%d, want 2/1", global.RoundsExecuted, global.RoundsSkipped)
	}

	if idx := c.ShardIndexes(); len(idx) != 2 {
		t.Fatalf("ShardIndexes = %v, want two shards", idx)
	}
	s0, ok := c.ShardSnapshot(0)
	if !ok || s0.SlabPeakLive != 100 || s0.SlabRecycled != 7 || s0.RoundsExecuted != 1 {
		t.Fatalf("shard 0 snapshot = %+v ok=%v", s0, ok)
	}
	s1, ok := c.ShardSnapshot(1)
	if !ok || s1.SlabPeakLive != 40 || s1.SlabRecycled != 5 || s1.RoundsExecuted != 1 || s1.RoundsSkipped != 1 {
		t.Fatalf("shard 1 snapshot = %+v ok=%v", s1, ok)
	}
	if _, ok := c.ShardSnapshot(9); ok {
		t.Fatal("unknown shard should report !ok")
	}
}

func TestForShardRebuildsMulti(t *testing.T) {
	c := NewCounters()
	j := NewCounters() // stands in for a second sink in the multi
	p := ForShard(Multi(c, j), 4)
	p.RoundExecuted(0, 1)

	if got := c.Snapshot().RoundsExecuted; got != 1 {
		t.Fatalf("first sink rounds = %d, want 1", got)
	}
	if got := j.Snapshot().RoundsExecuted; got != 1 {
		t.Fatalf("second sink rounds = %d, want 1", got)
	}
	if s, ok := c.ShardSnapshot(4); !ok || s.RoundsExecuted != 1 {
		t.Fatalf("shard 4 view of first sink = %+v ok=%v", s, ok)
	}
	// Find must still find a Counters through the shard fan-in so
	// substrates keep folding final snapshots into results.
	if _, ok := Find[*Counters](p); !ok {
		t.Fatal("Find lost the Counters through ForShard")
	}
}
