package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/sched"
	"lasmq/internal/trace"
	"lasmq/internal/workload"
)

// TestWrapperTransparent is the gate on every policy.* number: a timed policy
// must expose exactly the inner policy's capabilities (substrate.Driver picks
// its round logic by type assertion) and leave every simulated outcome
// byte-identical, on the engine with chaos on and on the fluid simulator.
func TestWrapperTransparent(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 3
	specs, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	specs = specs[:16]
	ecfg := chaosConfig(24, 3)
	ecfg.MaxRunningJobs = 6
	ecfg.FailureProb = 0.05

	flat, err := trace.Facebook(facebookConfig(3, 400, 20))
	if err != nil {
		t.Fatal(err)
	}
	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = 20

	for _, name := range policyOrder {
		mk := func(wrapped bool) sched.Scheduler {
			inner, err := newPolicy(name, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !wrapped {
				return inner
			}
			w, err := wrapPolicy(inner, newPolicySpans(newRecorder(), name, false))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := capabilities(w), capabilities(inner); got != want {
				t.Fatalf("%s: wrapper has capability set %05b, policy has %05b", name, got, want)
			}
			return w
		}
		bareE, err := engine.Run(specs, mk(false), ecfg)
		if err != nil {
			t.Fatal(err)
		}
		wrapE, err := engine.Run(specs, mk(true), ecfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bareE, wrapE) {
			t.Errorf("%s: wrapping changed the engine result", name)
		}
		bareF, err := fluid.Run(flat, mk(false), fcfg)
		if err != nil {
			t.Fatal(err)
		}
		wrapF, err := fluid.Run(flat, mk(true), fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bareF, wrapF) {
			t.Errorf("%s: wrapping changed the fluid result", name)
		}
	}

	// SRPT observes without hinting: no wrapper forwards that set exactly.
	if _, err := wrapPolicy(sched.NewSRPT(), newPolicySpans(newRecorder(), "SRPT", false)); err == nil {
		t.Error("wrapPolicy accepted a capability set it cannot forward exactly")
	}
}

// TestQuickSmoke runs every workload in both modes at -quick size and holds
// the output against BENCHMARK.json: every declared metric printed with a
// finite value, nothing failed, goldens matched, trace files written.
func TestQuickSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkDoc
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if want := describe(); !reflect.DeepEqual(decl, want) {
		t.Errorf("BENCHMARK.json = %+v\nthe program declares %+v\n(regenerate with go run ./benchmark -describe > BENCHMARK.json)", decl, want)
	}
	ws := workloads()

	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-outdir", dir, "-out", filepath.Join(dir, "run.json")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2*len(ws) {
		t.Fatalf("%d result lines, want %d", len(lines), 2*len(ws))
	}
	for i, raw := range lines {
		var l resultLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
			t.Errorf("line %d: correct=%v attempted=%d failed=%d", i, l.Correct, l.Attempted, l.Failed)
		}
		want := endToEnd
		if i%2 == 1 {
			want = perLayer
		}
		if len(l.Metrics) != len(want) {
			t.Errorf("line %d: %d metrics, want %d", i, len(l.Metrics), len(want))
		}
		for _, def := range want {
			m, ok := l.Metrics[def.name]
			if !ok || m.Unit != def.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("line %d: metric %s = %+v (present %v), want a finite value in %s", i, def.name, m, ok, def.unit)
			}
			if i%2 == 0 && m.Value <= 0 {
				t.Errorf("line %d: end-to-end metric %s = %v, want > 0", i, def.name, m.Value)
			}
		}
	}
	if !strings.Contains(stderr.String(), "golden: match") || strings.Contains(stderr.String(), "golden: none") {
		t.Errorf("seed 1 at -quick size must be checked against golden.json:\n%s", stderr.String())
	}
	for _, w := range ws {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Error(err)
		}
	}

	// The same run compared with itself: nothing resolved, nothing breached.
	var cmp bytes.Buffer
	if code := run([]string{"-compare", filepath.Join(dir, "run.json"), filepath.Join(dir, "run.json")}, &cmp, &stderr); code != 0 {
		t.Errorf("comparing a run with itself exits %d:\n%s", code, cmp.String())
	}
}

// TestCheckerCountsFailures: a digest that differs from the pinned one, a
// run that lost a job and a pass that disagrees with an earlier one each fail
// all of that run's jobs.
func TestCheckerCountsFailures(t *testing.T) {
	w := workloads()[0]
	inst := &instance{jobs: 10}
	good := digest{Jobs: 10, MeanResponse: 1, Makespan: 2}
	sweepOf := func(d digest) sweepResult {
		s := sweepResult{jobs: 10}
		for range policyOrder {
			s.runs = append(s.runs, policyRun{d: d})
		}
		return s
	}
	pinned := map[string]digest{}
	for _, p := range policyOrder {
		pinned[p] = good
	}
	golden := goldenFile{goldenKey(w.name, 10, 1): pinned}

	c := newChecker(w, golden)
	c.check(inst, 1, "first", sweepOf(good))
	if c.failed != 0 || c.goldenStatus() != "match" {
		t.Fatalf("matching digests: failed=%d golden=%s %v", c.failed, c.goldenStatus(), c.errs)
	}
	drift := good
	drift.MeanResponse++
	c.check(inst, 1, "second", sweepOf(drift))
	if c.failed != 40 {
		t.Errorf("a pass that disagrees with an earlier one: failed=%d, want 40", c.failed)
	}

	c = newChecker(w, golden)
	c.check(inst, 1, "first", sweepOf(drift))
	if c.failed != 40 || c.goldenStatus() != "mismatch" {
		t.Errorf("golden mismatch: failed=%d golden=%s", c.failed, c.goldenStatus())
	}

	c = newChecker(w, nil)
	lost := good
	lost.Jobs = 9
	c.check(inst, 7, "first", sweepOf(lost))
	if c.failed != 40 || c.goldenStatus() != "none for this seed and size" {
		t.Errorf("lost job: failed=%d golden=%s", c.failed, c.goldenStatus())
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(jobsPerS float64, failed int64) *runFile {
		r := &report{Workload: "fluid-heavy", Mode: "end_to_end", OpsAttempted: 100, OpsFailed: failed, Metrics: map[string]stat{}}
		for _, def := range endToEnd {
			r.Metrics[def.name] = single(1, def.unit)
		}
		r.Metrics["norm_jobs_per_s"] = stat{Median: jobsPerS, Min: jobsPerS * 0.99, Max: jobsPerS * 1.01, N: 9, Unit: "jobs/s"}
		return &runFile{Reports: []*report{r}}
	}
	var out bytes.Buffer
	if code := compareRuns(mk(1000, 0), mk(990, 0), &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("overlapping spreads: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(mk(1000, 0), mk(1200, 0), &out); code != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("faster run: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(mk(1000, 0), mk(500, 0), &out); code != 1 || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("halved throughput: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(mk(1000, 0), mk(1000, 5), &out); code != 1 {
		t.Errorf("larger failed share: exit %d\n%s", code, out.String())
	}
}
