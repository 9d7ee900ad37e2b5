package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeExperiment derives cells purely from the seed, with an optional delay
// to shuffle worker completion order.
func fakeExperiment(name string, delay time.Duration, calls *atomic.Int64) Experiment {
	return Experiment{
		Name:        name,
		Fingerprint: "fake",
		Run: func(seed int64) (*Sample, error) {
			if calls != nil {
				calls.Add(1)
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			return &Sample{
				Experiment: name,
				Seed:       seed,
				Cells: []Cell{
					{Group: "a", Key: "x", Value: float64(seed) * 2},
					{Group: "a", Key: "y", Value: float64(seed) + 0.5},
					{Group: "b", Key: "x", Value: math.Sqrt(float64(seed))},
				},
			}, nil
		},
	}
}

func TestRunAggregates(t *testing.T) {
	exps := []Experiment{fakeExperiment("e1", 0, nil), fakeExperiment("e2", 0, nil)}
	report, err := Run(exps, Options{Seeds: 4, BaseSeed: 10, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Aggregates) != 2 {
		t.Fatalf("got %d aggregates, want 2", len(report.Aggregates))
	}
	a := report.Aggregate("e1")
	if a == nil {
		t.Fatal("aggregate e1 missing")
	}
	wantSeeds := []int64{10, 11, 12, 13}
	for i, s := range a.Seeds {
		if s != wantSeeds[i] {
			t.Fatalf("seeds = %v, want %v", a.Seeds, wantSeeds)
		}
	}
	// Cell (a, x) holds 2*seed: per-seed 20,22,24,26 -> mean 23.
	c := a.Cell("a", "x")
	if c == nil {
		t.Fatal("cell (a,x) missing")
	}
	if c.Stats.N != 4 || math.Abs(c.Stats.Mean-23) > 1e-12 {
		t.Errorf("cell (a,x) stats = %+v, want n=4 mean=23", c.Stats)
	}
	if c.Stats.Min != 20 || c.Stats.Max != 26 {
		t.Errorf("cell (a,x) spread = [%v,%v], want [20,26]", c.Stats.Min, c.Stats.Max)
	}
	if len(c.PerSeed) != 4 || c.PerSeed[0] != 20 || c.PerSeed[3] != 26 {
		t.Errorf("per-seed = %v, want [20 22 24 26]", c.PerSeed)
	}
	if c.Stats.CI95 <= 0 {
		t.Errorf("CI95 = %v, want > 0 for varying cells", c.Stats.CI95)
	}
	if tbl := a.Table(); !strings.Contains(tbl, "±") || !strings.Contains(tbl, "23") {
		t.Errorf("table missing CI annotation:\n%s", tbl)
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "e1,a,x,4,23,") {
		t.Errorf("CSV missing aggregate row:\n%s", buf.String())
	}
}

// TestDeterminismAcrossWorkers is the regression for the merge path: the
// same seeds must produce byte-identical merged reports whether one worker
// or eight run the cells (and regardless of completion order, which the
// staggered delays scramble).
func TestDeterminismAcrossWorkers(t *testing.T) {
	mk := func() []Experiment {
		return []Experiment{
			fakeExperiment("slow", 3*time.Millisecond, nil),
			fakeExperiment("fast", 0, nil),
			fakeExperiment("mid", 1*time.Millisecond, nil),
		}
	}
	var blobs [][]byte
	for _, workers := range []int{1, 8} {
		report, err := Run(mk(), Options{Seeds: 5, BaseSeed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("merged reports differ between -workers 1 and -workers 8:\n%s\nvs\n%s",
			blobs[0], blobs[1])
	}
}

func TestCacheServesSecondRun(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	exps := func() []Experiment { return []Experiment{fakeExperiment("cached", 0, &calls)} }
	opts := Options{Seeds: 4, Workers: 2, CacheDir: dir}

	first, err := Run(exps(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.CacheMisses != 4 {
		t.Fatalf("first run: %d hits / %d misses, want 0/4", first.CacheHits, first.CacheMisses)
	}
	if calls.Load() != 4 {
		t.Fatalf("first run executed %d cells, want 4", calls.Load())
	}

	second, err := Run(exps(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 4 || second.CacheMisses != 0 {
		t.Fatalf("second run: %d hits / %d misses, want 4/0", second.CacheHits, second.CacheMisses)
	}
	if calls.Load() != 4 {
		t.Fatalf("second run re-executed cells: %d total calls", calls.Load())
	}

	// Cached and fresh aggregates must match bit for bit (counters aside).
	if !bytes.Equal(mustJSON(t, first.Aggregates), mustJSON(t, second.Aggregates)) {
		t.Error("cached aggregates differ from fresh ones")
	}
}

func TestCacheKeySeparatesConfigurations(t *testing.T) {
	if cacheKey("fig5", "trace=100", 1) == cacheKey("fig5", "trace=200", 1) {
		t.Error("different fingerprints share a cache key")
	}
	if cacheKey("fig5", "trace=100", 1) == cacheKey("fig5", "trace=100", 2) {
		t.Error("different seeds share a cache key")
	}
	if cacheKey("fig5", "trace=100", 1) == cacheKey("fig6", "trace=100", 1) {
		t.Error("different experiments share a cache key")
	}
}

func TestCorruptCacheCellRecomputed(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	exps := func() []Experiment { return []Experiment{fakeExperiment("corrupt", 0, &calls)} }
	opts := Options{Seeds: 1, BaseSeed: 7, Workers: 1, CacheDir: dir}
	if _, err := Run(exps(), opts); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir: %v entries, err %v", len(entries), err)
	}
	if err := os.WriteFile(filepath.Join(dir, entries[0].Name()), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := Run(exps(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.CacheHits != 0 || report.CacheMisses != 1 {
		t.Errorf("corrupt cell: %d hits / %d misses, want 0/1", report.CacheHits, report.CacheMisses)
	}
	if calls.Load() != 2 {
		t.Errorf("corrupt cell not recomputed: %d calls", calls.Load())
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Error("empty experiment table accepted")
	}
	dup := []Experiment{fakeExperiment("x", 0, nil), fakeExperiment("x", 0, nil)}
	if _, err := Run(dup, Options{}); err == nil {
		t.Error("duplicate experiment names accepted")
	}
	bad := []Experiment{{Name: "bad", Run: func(seed int64) (*Sample, error) {
		return nil, fmt.Errorf("boom at seed %d", seed)
	}}}
	_, err := Run(bad, Options{Seeds: 3, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "bad seed 1") {
		t.Errorf("error not surfaced deterministically: %v", err)
	}
}

// TestOptionsRejectNegative: a negative Seeds or Workers is an error naming
// the field, from Defaults and from Run, which runs nothing; zero is the
// default.
func TestOptionsRejectNegative(t *testing.T) {
	for _, tc := range []struct {
		opts  Options
		field string
	}{
		{Options{Seeds: -1}, "Seeds"},
		{Options{Workers: -2}, "Workers"},
		{Options{Seeds: 2, Workers: -1}, "Workers"},
		{Options{}, ""},
	} {
		var calls atomic.Int64
		_, runErr := Run([]Experiment{fakeExperiment("x", 0, &calls)}, tc.opts)
		o, err := tc.opts.Defaults()
		if tc.field == "" {
			if err != nil || runErr != nil || o.Seeds != 1 || o.Workers < 1 || calls.Load() != 1 {
				t.Errorf("zero options: %+v, %v, %v after %d runs; want the defaults", o, err, runErr, calls.Load())
			}
			continue
		}
		for _, e := range []error{err, runErr} {
			if e == nil || !strings.Contains(e.Error(), tc.field) {
				t.Errorf("%+v: error %v does not name %s", tc.opts, e, tc.field)
			}
		}
		if calls.Load() != 0 {
			t.Errorf("%+v: Run ran the experiment %d times", tc.opts, calls.Load())
		}
	}
}

func TestMergeRejectsMismatchedCells(t *testing.T) {
	shifty := Experiment{
		Name: "shifty",
		Run: func(seed int64) (*Sample, error) {
			cells := []Cell{{Group: "a", Key: "x", Value: 1}}
			if seed%2 == 0 {
				cells = append(cells, Cell{Group: "a", Key: "extra", Value: 2})
			}
			return &Sample{Experiment: "shifty", Seed: seed, Cells: cells}, nil
		},
	}
	if _, err := Run([]Experiment{shifty}, Options{Seeds: 2, Workers: 1}); err == nil {
		t.Error("mismatched cell sets across seeds accepted")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
