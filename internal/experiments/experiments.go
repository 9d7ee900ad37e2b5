// Package experiments wires the substrates together into one runner per
// table and figure of the paper's evaluation (Sec. V), plus the motivating
// example (Fig. 1) and ablations beyond the paper. Each runner returns
// structured results that the CLIs and benchmarks render; EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/obs"
)

// Policy names used across all experiments (the paper's four algorithms).
const (
	PolicyLASMQ = "LAS_MQ"
	PolicyLAS   = "LAS"
	PolicyFair  = "FAIR"
	PolicyFIFO  = "FIFO"
)

// PolicyOrder is the canonical reporting order.
var PolicyOrder = []string{PolicyLASMQ, PolicyLAS, PolicyFair, PolicyFIFO}

// Options tune experiment scale; a zero field takes its default (Defaults),
// and a negative count is an error.
type Options struct {
	// Seed drives workload/trace synthesis. Runs with the same seed are
	// bit-for-bit reproducible.
	Seed int64
	// Repeats averages the cluster experiments over this many seeds
	// (the paper runs its experiments "multiple times"). Default 1.
	Repeats int
	// TraceJobs overrides the heavy-tailed trace length (default: the
	// paper's 24,443). Use a smaller value for quick runs.
	TraceJobs int
	// UniformJobs overrides the light-tailed workload length (default:
	// the paper's 10,000).
	UniformJobs int
	// ScaleJobs overrides the trace length of whichever scale tier runs
	// (default: the tier's own preset, 100,000 to 10,000,000 jobs — see the
	// catalog). Tests and `make bench-smoke` shrink it; the benchmark tiers
	// run their presets in full.
	ScaleJobs int
	// Shards partitions the sharded scale tiers' cluster into this many
	// independent 20-container sub-clusters (default 8). Part of the
	// simulated system — it changes results and is folded into the cache
	// fingerprint.
	Shards int
	// ShardWorkers bounds how many shards advance concurrently in the sharded
	// scale tiers (0 = GOMAXPROCS). Execution parallelism only: results are
	// identical for any value, so it is deliberately NOT fingerprinted.
	ShardWorkers int
	// Probe receives telemetry events (see internal/obs) from every engine
	// and fluid run an experiment performs. It is observation only: results
	// must be bit-for-bit identical with and without a probe (a differential
	// test enforces this), so it is deliberately NOT part of the replication
	// cache fingerprint. Experiments that take no Options (Fig1) run
	// unprobed.
	Probe obs.Probe
}

// Defaults fills unset fields with paper-scale values, and rejects a
// negative count with an error naming the field.
func (o Options) Defaults() (Options, error) {
	for _, f := range []struct {
		name string
		n    int
	}{
		{"Repeats", o.Repeats}, {"TraceJobs", o.TraceJobs}, {"UniformJobs", o.UniformJobs},
		{"ScaleJobs", o.ScaleJobs}, {"Shards", o.Shards}, {"ShardWorkers", o.ShardWorkers},
	} {
		if f.n < 0 {
			return o, fmt.Errorf("experiments: Options.%s must be >= 0 (0 = default), got %d", f.name, f.n)
		}
	}
	if o.Repeats == 0 {
		o.Repeats = 1
	}
	if o.TraceJobs == 0 {
		o.TraceJobs = 24443
	}
	if o.UniformJobs == 0 {
		o.UniformJobs = 10000
	}
	if o.Shards == 0 {
		o.Shards = 8
	}
	return o, nil
}

// fullReschedule is the hook TestIncrementalMatchesFullAcrossRegistry flips
// to run every engine-backed experiment on engine.Config.FullReschedule, the
// reference path the incremental round fast paths must match. Nothing
// outside the package's tests sets it.
var fullReschedule bool

// engineConfig returns the task-level engine configuration the cluster
// experiments share: the paper's testbed defaults plus the Options' probe.
func (o Options) engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.FullReschedule = fullReschedule
	cfg.Probe = o.Probe
	return cfg
}

// traceLASMQConfig returns the paper's simulation configuration of LAS_MQ
// (k = 10, alpha0 = 1, step = 10). The trace-driven simulator exercises the
// basic multilevel-queue mechanism: stage awareness needs stage progress
// (trace jobs have none) and in-queue ordering by remaining demand is
// disabled — with it on, the first queue becomes an SRPT approximation and
// the paper's Fig. 8b degradation at alpha0 = 10 cannot occur, so the
// paper's simulator evidently ran FIFO queues as well. The testbed
// experiments use core.DefaultConfig (k = 10, alpha0 = 100, step = 10, both
// features on) instead.
func traceLASMQConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.FirstThreshold = 1
	cfg.StageAware = false
	cfg.OrderByDemand = false
	return cfg
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
