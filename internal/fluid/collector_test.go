package fluid_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lasmq/internal/fluid"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// Run is a collector over the streaming path. These tests pin what the
// collector adds to it: trace-order reporting of an unsorted trace, the
// duplicate-ID check ahead of any event, and the rejection of non-finite
// input by the one spec validator and Config.validate.

// tiedTrace is n jobs whose arrivals come in ties (three jobs per instant)
// with gaps long enough for the cluster to drain in between, in a shuffled
// slice order with non-contiguous IDs.
func tiedTrace(n int, seed int64) []fluid.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]fluid.JobSpec, n)
	for i := range specs {
		instant := float64(i / 3)
		if (i/3)%5 == 4 {
			instant += 40 // a gap: the backlog empties before the next burst
		}
		specs[i] = fluid.JobSpec{
			ID:       1000 - 7*i,
			Arrival:  instant,
			Size:     0.5 + rng.ExpFloat64()*3,
			Width:    1 + float64(rng.Intn(3)),
			Priority: 1 + rng.Intn(5),
		}
	}
	rng.Shuffle(n, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

func TestRunReportsUnsortedTraceInSliceOrder(t *testing.T) {
	shuffled := tiedTrace(90, 11)
	if slices.IsSortedFunc(shuffled, func(x, y fluid.JobSpec) int { return cmp.Compare(x.Arrival, y.Arrival) }) {
		t.Fatal("the trace must be out of arrival order for this test to mean anything")
	}
	// The reference: the same jobs in arrival order, ties in the shuffled
	// slice's relative order (the order Run admits them in).
	sorted := slices.Clone(shuffled)
	slices.SortStableFunc(sorted, func(x, y fluid.JobSpec) int { return cmp.Compare(x.Arrival, y.Arrival) })
	input := slices.Clone(shuffled)

	cfg := fluid.Config{Capacity: 4, TaskDuration: 1, MaxRunningJobs: 8}
	for name, newPolicy := range diffPolicies(t) {
		t.Run(name, func(t *testing.T) {
			run := func(specs []fluid.JobSpec) *fluid.Result {
				p, err := newPolicy()
				if err != nil {
					t.Fatal(err)
				}
				res, err := fluid.Run(specs, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			got, ref := run(shuffled), run(sorted)
			if !reflect.DeepEqual(shuffled, input) {
				t.Fatal("Run reordered the caller's slice")
			}
			byID := make(map[int]fluid.JobResult, len(ref.Jobs))
			for _, jr := range ref.Jobs {
				byID[jr.ID] = jr
			}
			if len(got.Jobs) != len(shuffled) {
				t.Fatalf("%d results for %d jobs", len(got.Jobs), len(shuffled))
			}
			responses, slowdowns := got.ResponseTimes(), got.Slowdowns()
			for i, jr := range got.Jobs {
				if jr.ID != shuffled[i].ID {
					t.Fatalf("Jobs[%d] is job %d, the slice holds job %d there", i, jr.ID, shuffled[i].ID)
				}
				if jr != byID[jr.ID] {
					t.Fatalf("job %d differs from the sorted-trace run:\nshuffled: %+v\n  sorted: %+v", jr.ID, jr, byID[jr.ID])
				}
				if responses[i] != jr.ResponseTime || slowdowns[i] != jr.Slowdown {
					t.Fatalf("statistics not folded in slice order at %d", i)
				}
			}
			if got.Makespan != ref.Makespan || got.Utilization != ref.Utilization || got.Rounds != ref.Rounds {
				t.Fatalf("aggregates differ: shuffled %v/%v/%d, sorted %v/%v/%d",
					got.Makespan, got.Utilization, got.Rounds, ref.Makespan, ref.Utilization, ref.Rounds)
			}
		})
	}
}

// TestRunRejectsDuplicateIDsBeforeAnyEvent: the duplicate sits at the end of
// the trace, and not one probe event may precede the error.
func TestRunRejectsDuplicateIDsBeforeAnyEvent(t *testing.T) {
	specs := tiedTrace(30, 3)
	specs = append(specs, specs[4])
	specs[len(specs)-1].Arrival = 1e6
	var log bytes.Buffer
	sink := obs.NewJSONL(&log)
	cfg := fluid.Config{Capacity: 4, TaskDuration: 1, Probe: sink}
	_, err := fluid.Run(specs, sched.NewFair(), cfg)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("duplicate job ID %d", specs[4].ID)) {
		t.Fatalf("error = %v, want the duplicate ID named", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Fatalf("events were emitted before the trace was rejected:\n%s", log.String())
	}
}

// TestNonFiniteInputRejected: every NaN or infinite spec field and Config
// field is an error from both entry points, naming the job and the field —
// not a "successful" run, a misleading "no progress" or a zero utilization.
func TestNonFiniteInputRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	spec := func(mutate func(*fluid.JobSpec)) []fluid.JobSpec {
		specs := []fluid.JobSpec{
			{ID: 1, Arrival: 0, Size: 2, Width: 1, Priority: 1},
			{ID: 7, Arrival: 1, Size: 2, Width: 1, Priority: 1},
		}
		mutate(&specs[1])
		return specs
	}
	config := func(mutate func(*fluid.Config)) fluid.Config {
		c := cfg1()
		mutate(&c)
		return c
	}
	good := spec(func(*fluid.JobSpec) {})
	tests := []struct {
		name  string
		specs []fluid.JobSpec
		cfg   fluid.Config
		want  []string
	}{
		{"NaN arrival", spec(func(s *fluid.JobSpec) { s.Arrival = nan }), cfg1(), []string{"job 7", "arrival"}},
		{"+Inf arrival", spec(func(s *fluid.JobSpec) { s.Arrival = inf }), cfg1(), []string{"job 7", "arrival"}},
		{"-Inf arrival", spec(func(s *fluid.JobSpec) { s.Arrival = -inf }), cfg1(), []string{"job 7", "arrival"}},
		{"NaN size", spec(func(s *fluid.JobSpec) { s.Size = nan }), cfg1(), []string{"job 7", "size"}},
		{"+Inf size", spec(func(s *fluid.JobSpec) { s.Size = inf }), cfg1(), []string{"job 7", "size"}},
		{"NaN width", spec(func(s *fluid.JobSpec) { s.Width = nan }), cfg1(), []string{"job 7", "width"}},
		{"+Inf width", spec(func(s *fluid.JobSpec) { s.Width = inf }), cfg1(), []string{"job 7", "width"}},
		{"NaN capacity", good, config(func(c *fluid.Config) { c.Capacity = nan }), []string{"capacity"}},
		{"+Inf capacity", good, config(func(c *fluid.Config) { c.Capacity = inf }), []string{"capacity"}},
		{"NaN task duration", good, config(func(c *fluid.Config) { c.TaskDuration = nan }), []string{"task duration"}},
		{"+Inf task duration", good, config(func(c *fluid.Config) { c.TaskDuration = inf }), []string{"task duration"}},
		{"NaN max step", good, config(func(c *fluid.Config) { c.MaxStep = nan }), []string{"max step"}},
		{"+Inf max step", good, config(func(c *fluid.Config) { c.MaxStep = inf }), []string{"max step"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, runErr := fluid.Run(tt.specs, sched.NewFIFO(), tt.cfg)
			_, streamErr := fluid.RunStream(fluid.SliceSource(tt.specs), sched.NewFIFO(), tt.cfg, nil)
			for entry, err := range map[string]error{"Run": runErr, "RunStream": streamErr} {
				if err == nil {
					t.Errorf("%s accepted the input", entry)
					continue
				}
				for _, want := range tt.want {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s error %q does not name %q", entry, err, want)
					}
				}
			}
		})
	}
}

// TestSlabStatsIndependentOfArenaHistory pins the one record-pool lifetime
// rule: the pool lives in the pooled arena and is rewound between runs, so a
// run reports the statistics a fresh pool would whatever ran on the arena
// before it — and a materialised Run's SlabStats event carries the same
// numbers as the streamed run over the same trace.
func TestSlabStatsIndependentOfArenaHistory(t *testing.T) {
	small, tcfg := diffTrace(t, 2)
	small = small[:400]
	big, _ := diffTrace(t, 3)
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity
	stream := func(specs []fluid.JobSpec) *fluid.StreamResult {
		res, err := fluid.RunStream(fluid.SliceSource(specs), sched.NewLAS(), fcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := stream(small)
	stream(big) // grows the arena's pool well past what the small trace needs
	again := stream(small)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("a run's result depends on what the arena ran before:\n first: %+v\n again: %+v", first, again)
	}
	if first.Slab.Peak <= 0 || first.Slab.Live != 0 {
		t.Fatalf("implausible slab stats %+v", first.Slab)
	}

	counters := obs.NewCounters()
	fcfg.Probe = counters
	if _, err := fluid.Run(small, sched.NewLAS(), fcfg); err != nil {
		t.Fatal(err)
	}
	if snap := counters.Snapshot(); int(snap.SlabPeakLive) != first.Slab.Peak || int(snap.SlabRecycled) != first.Slab.Recycled {
		t.Fatalf("Run's SlabStats event %+v disagrees with the streamed run's %+v", snap, first.Slab)
	}
}
