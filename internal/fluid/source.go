// Streaming trace substrate: a Source yields job specs one at a time, so a
// run's memory tracks the jobs that are live at once instead of the trace
// length. The canonical contract lives in internal/substrate's streaming
// kernel (so internal/trace depends on substrate, not on a simulator); this
// file re-exports it under the names fluid call sites have always used.
package fluid

import "lasmq/internal/substrate"

// Source streams the jobs of a trace in nondecreasing arrival order — an
// alias of the substrate kernel's canonical Source. Next returns the next
// spec and true, or a zero spec and false once the trace is exhausted; an
// error aborts the consuming run. Implementations must be deterministic: two
// sources built from the same inputs (same seed, same bytes) must yield
// identical sequences, the property the streaming-versus-materialized
// differential tests pin.
type Source = substrate.Source

// SliceSource returns a Source that replays an in-memory trace in slice
// order (the caller must have sorted it by arrival, as trace generators do).
func SliceSource(specs []JobSpec) Source { return substrate.SliceStream(specs) }

// Strided filters a source down to one shard's jobs: of the stream's items
// (0-indexed), it yields those whose index is congruent to offset modulo
// stride. It is substrate.Strided: each shard wraps its own source instance
// and walks the whole sequence, passing over other shards' jobs through the
// source's Skip when it has one (trace.NewFacebookSource's does).
func Strided(src Source, offset, stride int) Source {
	return substrate.Strided(src, offset, stride)
}
