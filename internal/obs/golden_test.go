package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.jsonl from the current emission order")

// goldenSpecs is a small fixed workload exercising every event family:
// admission queuing (MaxRunningJobs below the job count), multi-stage DAGs
// (stage-done events), failure injection (task-fail), and sizes crossing
// LAS_MQ thresholds (queue demotions).
func goldenSpecs() []job.Spec {
	specs := make([]job.Spec, 0, 8)
	for i := 0; i < 8; i++ {
		id := i + 1
		arrival := float64(i) * 3
		switch i % 3 {
		case 0: // small single-stage job
			specs = append(specs, job.Spec{
				ID: id, Bin: 1, Priority: 1, Arrival: arrival,
				Stages: []job.StageSpec{{
					Name:  "map",
					Tasks: []job.TaskSpec{{Duration: 4, Containers: 1}, {Duration: 6, Containers: 1}},
				}},
			})
		case 1: // map-reduce job large enough to be demoted
			maps := make([]job.TaskSpec, 6)
			for t := range maps {
				maps[t] = job.TaskSpec{Duration: float64(20 + 5*t), Containers: 1}
			}
			specs = append(specs, job.Spec{
				ID: id, Bin: 3, Priority: 2, Arrival: arrival,
				Stages: []job.StageSpec{
					{Name: "map", Tasks: maps},
					{Name: "reduce", Tasks: []job.TaskSpec{{Duration: 30, Containers: 2}}},
				},
			})
		default: // medium diamond DAG
			specs = append(specs, job.Spec{
				ID: id, Bin: 2, Priority: 3, Arrival: arrival,
				Stages: []job.StageSpec{
					{Name: "root", Tasks: []job.TaskSpec{{Duration: 8, Containers: 1}}},
					{Name: "left", Tasks: []job.TaskSpec{{Duration: 12, Containers: 1}}, DependsOn: []int{0}},
					{Name: "right", Tasks: []job.TaskSpec{{Duration: 10, Containers: 1}}, DependsOn: []int{0}},
					{Name: "join", Tasks: []job.TaskSpec{{Duration: 5, Containers: 2}}, DependsOn: []int{1, 2}},
				},
			})
		}
	}
	return specs
}

func goldenConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Containers = 6
	cfg.MaxRunningJobs = 3
	cfg.FailureProb = 0.2
	cfg.Seed = 42
	return cfg
}

// runGoldenJSONL executes the golden workload with a JSONL sink and returns
// the emitted bytes.
func runGoldenJSONL(t *testing.T) []byte {
	t.Helper()
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	cfg := goldenConfig()
	cfg.Probe = sink
	if _, err := engine.Run(goldenSpecs(), mq, cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenJSONL pins the JSONL event log byte-for-byte: same seed, same
// workload, same bytes. Any change to event order, field order or number
// formatting shows up as a diff against testdata/golden.jsonl (regenerate
// deliberately with -update-golden).
func TestGoldenJSONL(t *testing.T) {
	got := runGoldenJSONL(t)
	const path = "testdata/golden.jsonl"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/obs -run TestGoldenJSONL -update-golden`)", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("event log diverges from golden: got %d lines, want %d", len(gotLines), len(wantLines))
	}
}

// TestJSONLStableAcrossParallelRuns re-runs the golden workload on 8
// concurrent goroutines, each with its own sink, and requires every trace to
// be byte-identical to the single-goroutine bytes: event emission must
// depend only on the seeded run, never on scheduling of other goroutines
// (the worker-pool setting of the replication engine).
func TestJSONLStableAcrossParallelRuns(t *testing.T) {
	want := runGoldenJSONL(t)
	const workers = 8
	traces := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mq, err := core.New(core.DefaultConfig())
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			sink := obs.NewJSONL(&buf)
			cfg := goldenConfig()
			cfg.Probe = sink
			if _, err := engine.Run(goldenSpecs(), mq, cfg); err != nil {
				t.Error(err)
				return
			}
			if err := sink.Flush(); err != nil {
				t.Error(err)
				return
			}
			traces[w] = buf.Bytes()
		}(w)
	}
	wg.Wait()
	for w, trace := range traces {
		if !bytes.Equal(trace, want) {
			t.Fatalf("worker %d produced a different trace (%d vs %d bytes)", w, len(trace), len(want))
		}
	}
}

// TestJSONLLinesAreValidJSON parses every emitted line: the hand-built
// encoder must produce real JSON with the event tag present.
func TestJSONLLinesAreValidJSON(t *testing.T) {
	got := runGoldenJSONL(t)
	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	if len(lines) < 50 {
		t.Fatalf("suspiciously short trace: %d events", len(lines))
	}
	for i, line := range lines {
		var ev struct {
			Ev string  `json:"ev"`
			T  float64 `json:"t"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+1, err, line)
		}
		if ev.Ev == "" {
			t.Fatalf("line %d has no event tag: %s", i+1, line)
		}
	}
}

// TestChromeTraceValidity drives the golden workload into the Chrome
// trace-event exporter and checks the invariants a viewer depends on: the
// export is one JSON array, timestamps are non-negative and monotone
// non-decreasing per (pid, tid) track, durations are non-negative, and
// async queue spans balance their begin/end pairs.
func TestChromeTraceValidity(t *testing.T) {
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewChromeTrace()
	cfg := goldenConfig()
	cfg.Probe = trace
	if _, err := engine.Run(goldenSpecs(), mq, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Export(&buf); err != nil {
		t.Fatal(err)
	}

	var events []struct {
		Name string   `json:"name"`
		Cat  string   `json:"cat"`
		Ph   string   `json:"ph"`
		Ts   float64  `json:"ts"`
		Dur  *float64 `json:"dur"`
		Pid  int      `json:"pid"`
		Tid  int      `json:"tid"`
		// The trace-event format allows string or numeric span ids; the
		// exporter emits numbers.
		ID json.RawMessage `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	lastTs := make(map[[2]int]float64)
	spanDepth := make(map[string]int)
	for i, ev := range events {
		if ev.Ph == "M" {
			continue // metadata records carry no timestamp
		}
		if ev.Ts < 0 {
			t.Fatalf("event %d (%s) has negative ts %v", i, ev.Name, ev.Ts)
		}
		key := [2]int{ev.Pid, ev.Tid}
		if prev, ok := lastTs[key]; ok && ev.Ts < prev {
			t.Fatalf("event %d (%s) breaks track (%d,%d) monotonicity: ts %v after %v",
				i, ev.Name, ev.Pid, ev.Tid, ev.Ts, prev)
		}
		lastTs[key] = ev.Ts
		if ev.Dur != nil && *ev.Dur < 0 {
			t.Fatalf("event %d (%s) has negative duration %v", i, ev.Name, *ev.Dur)
		}
		switch ev.Ph {
		case "b":
			spanDepth[ev.Cat+"/"+string(ev.ID)+"/"+ev.Name]++
		case "e":
			k := ev.Cat + "/" + string(ev.ID) + "/" + ev.Name
			spanDepth[k]--
			if spanDepth[k] < 0 {
				t.Fatalf("event %d: async span %s ends before it begins", i, k)
			}
		}
	}
	for k, depth := range spanDepth {
		if depth != 0 {
			t.Fatalf("async span %s left %d unbalanced begin(s)", k, depth)
		}
	}
}

// TestMultiFansOut checks the fan-out combinator: both sinks see the same
// events, and nil/singleton edge cases collapse correctly.
func TestMultiFansOut(t *testing.T) {
	if obs.Multi() != nil {
		t.Fatal("Multi() should be nil (tracing off)")
	}
	c := obs.NewCounters()
	if obs.Multi(c, nil) != obs.Probe(c) {
		t.Fatal("Multi(c, nil) should collapse to c itself")
	}
	c2 := obs.NewCounters()
	m := obs.Multi(c, c2)
	m.JobSubmitted(1, 7)
	m.JobDone(5, 7, 4)
	for i, cc := range []*obs.Counters{c, c2} {
		s := cc.Snapshot()
		if s.JobsSubmitted != 1 || s.JobsCompleted != 1 {
			t.Fatalf("sink %d missed events: %+v", i, s)
		}
	}
	if fc, _ := obs.Find[*obs.Counters](m); fc != c {
		t.Fatalf("Find(multi) = %p, want first counters %p", fc, c)
	}
}

func TestCountersSnapshotIsDetached(t *testing.T) {
	c := obs.NewCounters()
	c.QueueDemote(1, 1, 0, 1, 5)
	s := c.Snapshot()
	c.QueueDemote(2, 2, 0, 1, 6)
	if s.Demotions[1] != 1 {
		t.Fatalf("snapshot mutated by later events: %v", s.Demotions)
	}
	s2 := c.Snapshot()
	if s2.Demotions[1] != 2 || s2.TotalDemotions() != 2 {
		t.Fatalf("second snapshot wrong: %v", s2.Demotions)
	}
	var buf bytes.Buffer
	s2.WriteSummary(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("demotions")) {
		t.Fatalf("summary missing demotions line:\n%s", buf.String())
	}
	if _, err := fmt.Fprintf(&buf, "%v", s2.SkippedRoundRatio()); err != nil {
		t.Fatal(err)
	}
}
