// The scale tiers as Go benchmarks: each runs one scale-* preset of the
// experiment catalog and reports its sampled peak heap, wall time and
// per-job allocations beside the normalized-response metrics. `make
// bench-smoke` runs all five small under -race; paper-scale runs are
// `lasmq bench -experiment scale-*`.
package experiments_test

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"lasmq/internal/experiments"
)

// scaleEnvInt applies an optional positive-int env override to a scale knob.
func scaleEnvInt(b *testing.B, key string, set func(int)) {
	b.Helper()
	env := os.Getenv(key)
	if env == "" {
		return
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		b.Fatalf("bad %s %q", key, env)
	}
	set(n)
}

// benchScaleTier runs one scale-tier preset of the experiment catalog per
// iteration while a background sampler reads the heap every 5ms, then
// reports the high-water mark as peak-heap-bytes and the per-run wall time as
// wall_clock_s (ns/op in human-readable seconds) alongside the usual
// normalized-response metrics. These are for looking at one tier's memory
// envelope; whether a change is faster or slower is benchmark/'s question.
// allocs/job and bytes/job are the iteration's heap objects and bytes per
// job-run (trace length × policies, sampler included — a few hundred objects
// a second), so tiers of different lengths compare: on a streamed tier they
// are what is left of per-run costs, and should fall as the trace grows.
//
// LASMQ_SCALE_JOBS, LASMQ_SCALE_SHARDS and LASMQ_SCALE_WORKERS override the
// trace length, shard count and shard worker pool of whichever tier runs (the
// race-enabled `make bench-smoke` runs every tier small, K=4, with a real
// 4-worker pool).
func benchScaleTier(b *testing.B, preset string) {
	b.Helper()
	rows, err := experiments.Select(preset)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Seed: 1, Repeats: 1}
	scaleEnvInt(b, "LASMQ_SCALE_JOBS", func(n int) { opts.ScaleJobs = n })
	scaleEnvInt(b, "LASMQ_SCALE_SHARDS", func(n int) { opts.Shards = n })
	scaleEnvInt(b, "LASMQ_SCALE_WORKERS", func(n int) { opts.ShardWorkers = n })
	var peak uint64
	var elapsed time.Duration
	var last *experiments.TraceResult
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		stop := make(chan struct{})
		sampled := make(chan uint64, 1)
		go func() {
			var high uint64
			var ms runtime.MemStats
			for {
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > high {
					high = ms.HeapAlloc
				}
				select {
				case <-stop:
					sampled <- high
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
		}()
		start := time.Now()
		res, err := rows[0].Run(opts)
		elapsed += time.Since(start)
		close(stop)
		if high := <-sampled; high > peak {
			peak = high
		}
		if err != nil {
			b.Fatal(err)
		}
		last = res.(*experiments.TraceResult)
	}
	runtime.ReadMemStats(&after)
	jobRuns := float64(b.N * last.Jobs * len(experiments.PolicyOrder))
	b.ReportMetric(float64(peak), "peak-heap-bytes")
	b.ReportMetric(elapsed.Seconds()/float64(b.N), "wall_clock_s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/jobRuns, "allocs/job")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/jobRuns, "bytes/job")
	for _, name := range experiments.PolicyOrder {
		b.ReportMetric(last.Normalized[name], "norm"+name)
	}
}

// BenchmarkScale100k runs the unsharded scale tier: the heavy-tailed trace at
// 100,000 jobs (~4x the paper's), materialized, under all four policies.
// Beyond ns/op and allocs, peak-heap-bytes tracks the memory envelope of the
// ladder event queue and slab state at scale.
func BenchmarkScale100k(b *testing.B) { benchScaleTier(b, "scale-100k") }

// BenchmarkScale1M runs the millions-of-jobs tier: the heavy-tailed trace
// streamed at 1,000,000 jobs over 8 independent 20-container shards (load
// 0.9 each) under all four policies. The trace is never materialized and
// completed job records are recycled through a free list, so peak-heap-bytes
// tracks live jobs, not trace length.
func BenchmarkScale1M(b *testing.B) { benchScaleTier(b, "scale-1m") }

// BenchmarkScale10M runs the ten-million-job tier: scale-1m's sharded
// streaming machinery with the trace length turned up 10x. Because the trace
// is generated on the fly and completed job records recycle through the free
// list, peak-heap-bytes should stay in scale-1m's neighbourhood even though
// the stream is an order of magnitude longer — the streaming contract this
// benchmark shows.
func BenchmarkScale10M(b *testing.B) { benchScaleTier(b, "scale-10m") }

// BenchmarkScale1MEngineSharded runs scale-1m on the task-level engine: the
// streamed trace staged into map→reduce jobs on the fly and simulated task
// by task — chaos failures, stragglers and speculation on — across 8
// independent 20-container sub-clusters via engine.RunSharded.
func BenchmarkScale1MEngineSharded(b *testing.B) { benchScaleTier(b, "scale-1m-engine") }

// BenchmarkScale10MEngineSharded is the flagship engine scale-out tier: ten
// million streamed jobs staged and simulated task by task across 8 sharded
// sub-clusters (engine.RunSharded), with per-shard-deterministic chaos. On a
// multi-core runner, wall_clock_s drops roughly with the worker count
// (Workers is execution-only: results are DeepEqual for any value);
// peak-heap-bytes stays bounded by live jobs, not trace length.
func BenchmarkScale10MEngineSharded(b *testing.B) { benchScaleTier(b, "scale-10m-engine") }
