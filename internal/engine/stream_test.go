package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// streamChaosConfig is the differential configuration: failures, stragglers
// and speculation all on, plus a tight admission limit, so the streaming
// path must reproduce the RNG stream, the kill-sibling bookkeeping and the
// admission queue byte for byte.
func streamChaosConfig(seed int64) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Containers = 20
	cfg.MaxRunningJobs = 4
	cfg.FailureProb = 0.1
	cfg.StragglerProb = 0.2
	cfg.StragglerFactor = 3
	cfg.Speculation = true
	cfg.Seed = seed
	return cfg
}

// TestEngineRunStreamMatchesRun is the tentpole differential: RunStream over
// a SliceSource must produce byte-identical per-job results — and identical
// makespan, peak usage and utilization — to Run on the materialized
// workload, across seeds and policy families, with chaos injection on.
func TestEngineRunStreamMatchesRun(t *testing.T) {
	policies := diffPolicies(t)
	for _, name := range []string{"FIFO", "LASMQ-stageaware", "SRTF", "Adaptive"} {
		newPolicy := policies[name]
		if newPolicy == nil {
			t.Fatalf("unknown differential policy %q", name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				specs := diffWorkload(seed, 60)
				cfg := streamChaosConfig(seed)

				ref, err := engine.Run(specs, newPolicy(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := make(map[int]engine.JobResult, len(ref.Jobs))
				for _, jr := range ref.Jobs {
					want[jr.ID] = jr
				}

				got := make(map[int]engine.JobResult, len(specs))
				res, err := engine.RunStream(engine.SliceSource(specs), newPolicy(), cfg,
					func(jr engine.JobResult) { got[jr.ID] = jr })
				if err != nil {
					t.Fatal(err)
				}

				if res.Jobs != len(ref.Jobs) {
					t.Fatalf("streamed %d jobs, materialized %d", res.Jobs, len(ref.Jobs))
				}
				for id, w := range want {
					g, ok := got[id]
					if !ok {
						t.Fatalf("job %d missing from streamed results", id)
					}
					if g != w {
						t.Fatalf("job %d diverged:\n stream: %+v\n    run: %+v", id, g, w)
					}
				}
				if res.Makespan != ref.Makespan {
					t.Fatalf("makespan diverged: stream %v, run %v", res.Makespan, ref.Makespan)
				}
				if res.PeakUsage != ref.PeakUsage {
					t.Fatalf("peak usage diverged: stream %d, run %d", res.PeakUsage, ref.PeakUsage)
				}
				if res.Utilization != ref.Utilization {
					t.Fatalf("utilization diverged: stream %v, run %v", res.Utilization, ref.Utilization)
				}
			})
		}
	}
}

// TestEngineStreamPoolBounded pins the recycling payoff: a workload whose
// jobs never overlap must be simulated with a couple of live records no
// matter how long the stream is, recycling one record per completed job.
func TestEngineStreamPoolBounded(t *testing.T) {
	const n = 500
	specs := make([]job.Spec, n)
	for i := range specs {
		// Each job finishes (duration 5) well before the next arrives.
		specs[i] = uniformJob(i+1, float64(i)*10, 1, 5)
	}
	cfg := engine.DefaultConfig()
	res, err := engine.RunStream(engine.SliceSource(specs), sched.NewFIFO(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != n {
		t.Fatalf("completed %d jobs, want %d", res.Jobs, n)
	}
	if res.Slab.Peak > 2 {
		t.Fatalf("job-record pool peaked at %d live records for serial jobs, want <= 2", res.Slab.Peak)
	}
	if res.Slab.Live != 0 {
		t.Fatalf("%d records still live at exit, want 0", res.Slab.Live)
	}
	if res.Slab.Recycled < n-2 {
		t.Fatalf("only %d records recycled out of %d jobs", res.Slab.Recycled, n)
	}
}

// TestEngineRunStreamRejectsUnsortedSource pins the streaming contract: an
// out-of-order arrival is an error, not a silent misordering.
func TestEngineRunStreamRejectsUnsortedSource(t *testing.T) {
	specs := []job.Spec{
		uniformJob(1, 5, 1, 1),
		uniformJob(2, 1, 1, 1),
	}
	cfg := engine.DefaultConfig()
	_, err := engine.RunStream(engine.SliceSource(specs), sched.NewFIFO(), cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("expected a not-sorted error, got %v", err)
	}
}

// erroringSource yields one valid job and then fails, checking mid-stream
// source errors surface wrapped instead of ending the run silently.
type erroringSource struct{ n int }

func (s *erroringSource) Next() (job.Spec, bool, error) {
	if s.n == 0 {
		s.n++
		return uniformJob(1, 0, 1, 1), true, nil
	}
	return job.Spec{}, false, errors.New("disk on fire")
}

func TestEngineRunStreamSourceError(t *testing.T) {
	cfg := engine.DefaultConfig()
	_, err := engine.RunStream(&erroringSource{}, sched.NewFIFO(), cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "engine: source: disk on fire") {
		t.Fatalf("expected the wrapped source error, got %v", err)
	}
}

// TestEngineRunStreamDeepCopiesSpecs guards the pending entries' ownership
// contract: a source that reuses its stage, task and dependency-list buffers
// across Next calls must still stream correctly, because the run deep-copies
// each spec into the job's pending entry. The admission cap binds, so specs
// wait in the backlog while later Next calls overwrite the buffers: a shallow
// copy would build their task state from another job's tasks.
func TestEngineRunStreamDeepCopiesSpecs(t *testing.T) {
	const n = 40
	specs := diffWorkload(9, n)
	ref, err := engine.Run(specs, sched.NewLAS(), streamChaosConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]engine.JobResult, len(ref.Jobs))
	for _, jr := range ref.Jobs {
		want[jr.ID] = jr
	}

	// The source hands out every spec over the same three buffers, sized for
	// the largest job, scribbling over the previous job's stages, tasks and
	// dependency lists each time.
	var nStages, nTasks, nDeps int
	for _, spec := range specs {
		nStages = max(nStages, len(spec.Stages))
		nTasks = max(nTasks, spec.TotalTasks())
		d := 0
		for _, st := range spec.Stages {
			d += len(st.DependsOn)
		}
		nDeps = max(nDeps, d)
	}
	stages := make([]job.StageSpec, nStages)
	tasks := make([]job.TaskSpec, nTasks)
	deps := make([]int, nDeps)
	i := 0
	src := sourceFunc(func() (job.Spec, bool, error) {
		if i >= len(specs) {
			return job.Spec{}, false, nil
		}
		spec := specs[i]
		i++
		taskOff, depOff := 0, 0
		for si, st := range spec.Stages {
			tasks := tasks[taskOff : taskOff+copy(tasks[taskOff:], st.Tasks)]
			taskOff += len(tasks)
			var dependsOn []int
			if st.DependsOn != nil {
				dependsOn = deps[depOff : depOff+copy(deps[depOff:], st.DependsOn)]
				depOff += len(dependsOn)
			}
			stages[si] = job.StageSpec{Name: st.Name, Tasks: tasks, DependsOn: dependsOn}
		}
		spec.Stages = stages[:len(spec.Stages)]
		return spec, true, nil
	})
	got := make(map[int]engine.JobResult, n)
	if _, err := engine.RunStream(src, sched.NewLAS(), streamChaosConfig(9),
		func(jr engine.JobResult) { got[jr.ID] = jr }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("buffer-reusing source diverged from materialized run:\n want %d jobs, got %d", len(want), len(got))
	}
}

// sourceFunc adapts a closure to engine.Source.
type sourceFunc func() (job.Spec, bool, error)

func (f sourceFunc) Next() (job.Spec, bool, error) { return f() }

// TestEngineRunStreamProbeSlabStats pins the telemetry wiring: a streaming
// run emits both free lists' stats through obs.Probe.SlabStats (the attempt
// slab's from the event loop, the job-record pool's at the end), a probed
// run's results are byte-identical to an unprobed one, and the counters
// agree with the StreamResult's own pool stats.
func TestEngineRunStreamProbeSlabStats(t *testing.T) {
	specs := diffWorkload(4, 60)
	cfg := streamChaosConfig(4)

	var plain []engine.JobResult
	ref, err := engine.RunStream(engine.SliceSource(specs), sched.NewLAS(), cfg,
		func(jr engine.JobResult) { plain = append(plain, jr) })
	if err != nil {
		t.Fatal(err)
	}

	counters := obs.NewCounters()
	cfg.Probe = counters
	var probed []engine.JobResult
	res, err := engine.RunStream(engine.SliceSource(specs), sched.NewLAS(), cfg,
		func(jr engine.JobResult) { probed = append(probed, jr) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, probed) {
		t.Fatal("attaching a probe changed the streamed per-job results")
	}

	snap := counters.Snapshot()
	// Counters keeps the max peak across SlabStats events and sums the
	// recycle counts, so across the two pools we expect max and sum.
	wantPeak := int64(res.Slab.Peak)
	if int64(res.AttemptSlab.Peak) > wantPeak {
		wantPeak = int64(res.AttemptSlab.Peak)
	}
	wantRecycled := int64(res.Slab.Recycled + res.AttemptSlab.Recycled)
	if snap.SlabPeakLive != wantPeak {
		t.Errorf("slab_peak_live = %d, want %d (max of job pool %d, attempt slab %d)",
			snap.SlabPeakLive, wantPeak, res.Slab.Peak, res.AttemptSlab.Peak)
	}
	if snap.SlabRecycled != wantRecycled {
		t.Errorf("slab_recycled = %d, want %d (job pool %d + attempt slab %d)",
			snap.SlabRecycled, wantRecycled, res.Slab.Recycled, res.AttemptSlab.Recycled)
	}
	if res.Slab.Recycled == 0 {
		t.Error("job-record pool recycled nothing over 60 jobs")
	}
	if ref.Slab != res.Slab {
		t.Errorf("probe changed pool stats: %+v vs %+v", res.Slab, ref.Slab)
	}
}
