package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runPerLayer attributes host time to layers. Every sweep here runs over the
// run's own seed, so counts are exact properties of that input; untraced and
// traced sweeps alternate until o.seconds is spent, and the traced sweep
// whose wall is the median supplies every span-derived number, so that the
// parts add up to a whole that was actually measured.
func runPerLayer(w *benchWorkload, o options) (*report, error) {
	begin := time.Now()
	c := newChecker(w, o.golden)
	m := map[string]float64{"run.clock_pair_ns": clockPairNs()}

	inst, _, err := setUp(w, o, c, 0)
	if err != nil {
		return nil, err
	}

	var untraced, traced []sweepResult
	start := time.Now()
	for i := 0; i < o.minSweeps()-1 || time.Since(start).Seconds() < o.seconds; i++ {
		u := sweep(w, inst, false, 0)
		c.check(inst, o.seed, fmt.Sprintf("untraced sweep %d", i), u)
		untraced = append(untraced, u)
		t := sweep(w, inst, true, 0)
		c.check(inst, o.seed, fmt.Sprintf("traced sweep %d", i), t)
		traced = append(traced, t)
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].wall < traced[j].wall })
	t := traced[(len(traced)-1)/2]

	walls := make([]float64, len(untraced))
	speeds := make([]float64, len(untraced))
	gcCycles, gcPauseNs := 0.0, 0.0
	for i, u := range untraced {
		walls[i] = u.wall
		speeds[i] = u.speed
		gcCycles += float64(u.gcCycles)
		gcPauseNs += float64(u.gcPauseNs)
	}
	wall := summarize(walls, "s")
	m["run.wall_spread"] = (wall.Max - wall.Min) / wall.Median
	m["run.raw_jobs_per_s"] = float64(inst.jobs*len(policyOrder)) / wall.Median
	m["run.machine_speed_x"] = summarize(speeds, "x").Median
	m["gc.cycles"] = gcCycles / float64(len(untraced))
	m["gc.pause_ms"] = gcPauseNs / 1e6 / float64(len(untraced))
	for p, name := range policyOrder {
		per := make([]float64, len(untraced))
		for i, u := range untraced {
			per[i] = u.runs[p].wall
		}
		m["run.wall_s."+name] = summarize(per, "s").Median
		m["sim.mean_response."+name] = t.runs[p].d.meanResponse()
	}

	// A probe forces a sharded run serial, so the traced pass of the sharded
	// workload is held against an untraced serial sweep, which also gives the
	// speed-up of the parallel one.
	base := wall.Median
	if w.workers > 1 {
		serial := sweep(w, inst, false, 1)
		c.check(inst, o.seed, "workers-1 sweep", serial)
		m["shard.workers1_wall_s"] = serial.wall
		m["shard.speedup_x"] = serial.wall / wall.Median
		base = serial.wall
	}
	m["run.trace_overhead_x"] = t.wall / base

	var mem sweepResult
	m["mem.peak_live_heap_mb"] = peakHeapMB(func() { mem = sweep(w, inst, false, 0) })
	c.check(inst, o.seed, "memory pass", mem)

	ops := float64(inst.jobs * len(policyOrder))
	var assign, observe, horizon span
	var views, sourceS, selfS, traceSetupS, stageS float64
	var probe countingProbe
	for p, ps := range t.spans {
		merge(&assign, ps.assign)
		merge(&observe, ps.observe)
		merge(&horizon, ps.horizon)
		views += float64(ps.views)
		policyS := ps.assign.seconds() + ps.observe.seconds() + ps.horizon.seconds()
		m["policy.self_s."+policyOrder[p]] = policyS

		outer := ps.flatNext
		if w.staged {
			outer = ps.stagedNext
			stageS += ps.stagedNext.seconds() - ps.flatNext.seconds()
		}
		traceSetupS += ps.sourceSetupS
		m["trace.next_calls"] += float64(ps.flatNext.Count)
		m["trace.next_s"] += ps.flatNext.seconds()
		sourceS += ps.sourceSetupS + outer.seconds()
		selfS += ps.run.seconds() - policyS - ps.sourceSetupS - outer.seconds()

		probe.add(t.probes[p])
		d := t.runs[p].d
		m["substrate.slab_peak_live"] = math.Max(m["substrate.slab_peak_live"], float64(d.slabPeak))
		m["substrate.slab_recycled"] += float64(d.slabRecycled)
	}
	m["policy.assign_calls"] = float64(assign.Count)
	m["policy.assign_s"] = assign.seconds()
	m["policy.assign_p50_ns"] = histQuantile(&assign.Hist, 0.50)
	m["policy.assign_p99_ns"] = histQuantile(&assign.Hist, 0.99)
	viewsPerRound := views / math.Max(1, float64(assign.Count))
	m["policy.views_per_round"] = viewsPerRound
	m["policy.observe_calls"] = float64(observe.Count)
	m["policy.observe_s"] = observe.seconds()
	m["policy.horizon_calls"] = float64(horizon.Count)
	m["policy.horizon_s"] = horizon.seconds()
	m["core.demotions"] = float64(probe.demotions)
	m["trace.setup_s"] = traceSetupS
	m["workload.stage_next_s"] = stageS
	m["workload.generate_s"] = inst.generateS
	m["substrate.peak_admission_backlog"] = float64(probe.peakBacklog)
	m["eventq.migrations"] = float64(probe.migrations)
	events, rounds := float64(probe.events()), float64(probe.roundsExecuted)

	// Replays, at the sizes this input produced.
	liveViews := max(1, int(math.Round(viewsPerRound)))
	m["substrate.viewset_round_ns"] = viewsetRoundNs(liveViews)
	m["substrate.slabpool_cycle_ns"] = slabpoolCycleNs()
	m["sched.quantize_ns"] = quantizeNs(liveViews, w.capacity)
	m["eventq.heap_hold_ns.live"] = heapHoldNs(w.capacity)
	m["eventq.ladder_hold_ns.live"] = ladderHoldNs(w.capacity)
	m["eventq.heap_hold_ns.n8192"] = heapHoldNs(8192)
	m["eventq.ladder_hold_ns.n8192"] = ladderHoldNs(8192)

	if w.isEngine {
		m["engine.self_s"] = selfS
		m["engine.events"] = events
		m["engine.events_per_job"] = events / ops
		m["engine.self_ns_per_event"] = selfS * 1e9 / math.Max(1, events)
		m["engine.rounds_executed"] = rounds
		m["engine.rounds_skipped"] = float64(probe.roundsSkipped)
		m["engine.rounds_observed"] = float64(probe.roundsObserved)
		m["engine.tasks_launched"] = float64(probe.taskStarts)
		m["engine.task_failures"] = float64(probe.taskFails)
		m["engine.spec_launches"] = float64(probe.specLaunches)
		m["engine.spec_wins"] = float64(probe.specWins)
		explained := rounds*(m["substrate.viewset_round_ns"]+m["sched.quantize_ns"]) +
			events*m["eventq.heap_hold_ns.live"] + ops*m["substrate.slabpool_cycle_ns"]
		m["engine.unexplained_share"] = 1 - explained/1e9/selfS
	} else {
		m["fluid.self_s"] = selfS
		m["fluid.rounds_executed"] = rounds
		m["fluid.rounds_per_job"] = rounds / ops
		m["fluid.self_ns_per_round"] = selfS * 1e9 / math.Max(1, rounds)
		for p := range policyOrder {
			if got, want := t.probes[p].roundsExecuted, int64(t.runs[p].d.rounds); got != want {
				c.failf("%s %s: probe saw %d rounds, result reports %d", w.name, policyOrder[p], got, want)
			}
		}
	}

	// The parts must add up to the whole: policy, source and simulator self
	// times sum to the run spans by construction, so what can go missing is
	// time between the runs.
	if sum := selfS + sourceS + assign.seconds() + observe.seconds() + horizon.seconds(); math.Abs(sum-t.wall) > 0.02*t.wall {
		c.failf("%s: layer self times sum to %.4fs, the traced sweep took %.4fs", w.name, sum, t.wall)
	}

	r := &report{Workload: w.name, Mode: "per_layer", Jobs: inst.jobs, Sweeps: len(untraced)}
	c.fill(r)
	m["sim.digest_ok"] = 0
	if r.Correct {
		m["sim.digest_ok"] = 1
	}
	r.Metrics = make(map[string]stat, len(perLayer))
	for _, def := range perLayer {
		r.Metrics[def.name] = single(m[def.name], def.unit)
	}
	if err := writeTrace(o.outDir, w, o, t); err != nil {
		return nil, err
	}
	r.WallS = time.Since(begin).Seconds()
	return r, nil
}

// merge adds src's calls into dst.
func merge(dst, src *span) {
	dst.Count += src.Count
	dst.TotalNs += src.TotalNs
	dst.MaxNs = max(dst.MaxNs, src.MaxNs)
	for i, c := range src.Hist {
		dst.Hist[i] += c
	}
}

// writeTrace writes the traced sweep's aggregated spans and its first raw
// spans to dir/trace-<workload>.json.
func writeTrace(dir string, w *benchWorkload, o options, t sweepResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Jobs     int        `json:"jobs_per_policy_run"`
		WallS    float64    `json:"traced_sweep_wall_s"`
		Spans    []*span    `json:"spans"`
		Raw      []rawSpan  `json:"first_raw_spans"`
		Stamp    provenance `json:"provenance"`
	}{w.name, o.seed, t.jobs, t.wall, t.rec.spans, t.rec.raw, stampNow(o)}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+w.name+".json"), data, 0o644)
}
