package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// ShardSink is implemented by sinks that can attribute events to the shard
// of a sharded run that emitted them. ShardProbe returns the sink a sharded
// runner should hand to shard's sub-simulation; events sent to it are
// recorded both globally and under the shard label.
type ShardSink interface {
	ShardProbe(shard int) Sink
}

// ForShard derives shard's view of p for a sharded run. Sinks that implement
// ShardSink (Counters, Histograms) get a shard-labelled sub-view; a Multi is
// rebuilt member-wise; any other probe is returned unchanged, so event-stream
// sinks (JSONL, ChromeTrace) keep receiving the fan-in exactly as before —
// the sharded runners serialize execution whenever a probe is attached, so
// the combined stream stays deterministic. A nil probe stays nil, preserving
// the zero-overhead contract.
func ForShard(p Probe, shard int) Probe {
	if s, ok := p.(Sink); ok {
		return forShard(s, shard)
	}
	return p
}

func forShard(s Sink, shard int) Sink {
	switch v := s.(type) {
	case ShardSink:
		return v.ShardProbe(shard)
	case *multi:
		out := make([]Sink, len(v.sinks))
		for i, m := range v.sinks {
			out[i] = forShard(m, shard)
		}
		return Multi(out...)
	}
	return s
}

// shardTable holds a sink's per-shard sub-sinks, keyed by shard index and
// created on first use (empty until a sharded run attaches the sink).
type shardTable[S Sink] struct {
	mu   sync.Mutex
	subs map[int]S
}

// get returns shard's sub-sink, creating it with mk the first time.
func (t *shardTable[S]) get(shard int, mk func() S) S {
	t.mu.Lock()
	defer t.mu.Unlock()
	sub, ok := t.subs[shard]
	if !ok {
		if t.subs == nil {
			t.subs = make(map[int]S)
		}
		sub = mk()
		t.subs[shard] = sub
	}
	return sub
}

// lookup returns shard's sub-sink and whether one was derived.
func (t *shardTable[S]) lookup(shard int) (S, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sub, ok := t.subs[shard]
	return sub, ok
}

// indexes returns the derived shard indexes in ascending order. Every
// summary/JSON surface iterates shards through this, never the map itself,
// so output order cannot depend on Go's map iteration (pinned by test).
func (t *shardTable[S]) indexes() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make([]int, 0, len(t.subs))
	for i := range t.subs { // range-ok: indexes are sorted before use
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// ShardProbe implements ShardSink: the returned sink feeds both the global
// aggregates and a per-shard Counters, so SlabStats / round events of a
// sharded run are queryable per shard (ShardSnapshot) as well as in total.
func (c *Counters) ShardProbe(shard int) Sink {
	return Multi(c, c.shards.get(shard, NewCounters))
}

// ShardSnapshot returns the aggregates of one shard's events and whether
// that shard ever emitted any (i.e. a shard probe was derived for it).
func (c *Counters) ShardSnapshot(shard int) (CounterSnapshot, bool) {
	sub, ok := c.shards.lookup(shard)
	if !ok {
		return CounterSnapshot{}, false
	}
	return sub.Snapshot(), true
}

// ShardIndexes returns the derived shard indexes in ascending order.
func (c *Counters) ShardIndexes() []int { return c.shards.indexes() }

// WriteSummary prints the global snapshot followed by a one-line-per-shard
// breakdown in ascending shard-index order (empty for unsharded runs). It
// is the deterministic-order counterpart of CounterSnapshot.WriteSummary
// for sinks that saw a sharded run.
func (c *Counters) WriteSummary(w io.Writer) {
	c.Snapshot().WriteSummary(w)
	for _, i := range c.ShardIndexes() {
		snap, ok := c.ShardSnapshot(i)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  shard %-3d jobs %d/%d/%d tasks %d/%d/%d rounds %d/%d\n",
			i, snap.JobsSubmitted, snap.JobsAdmitted, snap.JobsCompleted,
			snap.TasksLaunched, snap.TasksCompleted, snap.TaskFailures,
			snap.RoundsExecuted, snap.RoundsSkipped)
	}
}
