package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"lasmq/internal/runner"
)

// shrunk is the catalog-wide small scale of the registry differentials.
var shrunk = Options{Seed: 1, TraceJobs: 600, UniformJobs: 120, ScaleJobs: 1600, Shards: 4}

// TestCatalog checks the one declaration everything else is derived from:
// names unique and titled, the derived name lists consistent with the flags
// on the rows, "all" = the non-stress rows in catalog order, and every row
// runnable at shrunk scale with a non-empty table and (for registry rows)
// finite cells.
func TestCatalog(t *testing.T) {
	seen := make(map[string]bool)
	var all, registry, direct []string
	for _, e := range catalog {
		if e.Name == "" || e.Name == "all" || seen[e.Name] {
			t.Errorf("row name %q is empty, reserved or duplicated", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("row %q lacks a title or a runner", e.Name)
		}
		all = append(all, e.Name)
		if !e.DirectOnly {
			registry = append(registry, e.Name)
		}
		if !e.Stress {
			direct = append(direct, e.Name)
		}
	}
	if !reflect.DeepEqual(Names(), all) {
		t.Errorf("Names() = %v, want %v", Names(), all)
	}
	if !reflect.DeepEqual(RegistryNames(), registry) {
		t.Errorf("RegistryNames() = %v, want %v", RegistryNames(), registry)
	}
	rows, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range rows {
		got = append(got, e.Name)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Errorf(`Select("all") = %v, want the non-stress rows %v`, got, direct)
	}
	if _, err := Select("nope"); err == nil || !strings.Contains(err.Error(), "table1") {
		t.Errorf(`Select("nope") error %v does not list the catalog`, err)
	}

	if testing.Short() {
		t.Skip("runs every experiment once")
	}
	for _, e := range catalog {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			one, err := Select(e.Name)
			if err != nil || len(one) != 1 || one[0].Name != e.Name {
				t.Fatalf("Select(%q) = %v, %v", e.Name, one, err)
			}
			res, err := e.Run(shrunk)
			if err != nil {
				t.Fatal(err)
			}
			if tbl := res.Table(); tbl == "" || !strings.HasSuffix(tbl, "\n") {
				t.Errorf("table %q is empty or unterminated", tbl)
			}
			cells := res.Cells()
			if len(cells) == 0 != e.DirectOnly {
				t.Errorf("%d cells on a row with DirectOnly=%t", len(cells), e.DirectOnly)
			}
			for _, c := range cells {
				if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
					t.Errorf("cell (%s, %s) = %v", c.Group, c.Key, c.Value)
				}
			}
		})
	}
}

func TestRegistryNamesMatchTable(t *testing.T) {
	exps := Registry(Options{})
	names := RegistryNames()
	if len(exps) != len(names) {
		t.Fatalf("registry has %d entries, names list %d", len(exps), len(names))
	}
	for i, e := range exps {
		if e.Name != names[i] {
			t.Errorf("entry %d is %q, names list says %q", i, e.Name, names[i])
		}
		if e.Run == nil {
			t.Errorf("entry %q has nil Run", e.Name)
		}
		if e.Fingerprint == "" {
			t.Errorf("entry %q has empty fingerprint", e.Name)
		}
	}
}

func TestSelectRegistry(t *testing.T) {
	sel, err := SelectRegistry(Options{}, "fig5", "fig8a")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "fig5" || sel[1].Name != "fig8a" {
		t.Errorf("selection = %v", sel)
	}
	if _, err := SelectRegistry(Options{}, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := SelectRegistry(Options{}, "table1"); err == nil || !strings.Contains(err.Error(), "table1 runs in direct mode only") {
		t.Errorf("direct-only experiment: error %v, want \"table1 runs in direct mode only\"", err)
	}
	all, err := SelectRegistry(Options{})
	if err != nil || len(all) != len(RegistryNames()) {
		t.Errorf("empty selection: %d entries, err %v", len(all), err)
	}
}

// TestRegistryFingerprintTracksScale: cache keys must change when a scale
// knob does, or cells from different scales would collide — and must not
// change with the knobs that never affect results.
func TestRegistryFingerprintTracksScale(t *testing.T) {
	base := Registry(shrunk)[0].Fingerprint
	for name, o := range map[string]Options{
		"TraceJobs":   {TraceJobs: 601, UniformJobs: 120, ScaleJobs: 1600, Shards: 4},
		"UniformJobs": {TraceJobs: 600, UniformJobs: 121, ScaleJobs: 1600, Shards: 4},
		"ScaleJobs":   {TraceJobs: 600, UniformJobs: 120, ScaleJobs: 1601, Shards: 4},
		"Shards":      {TraceJobs: 600, UniformJobs: 120, ScaleJobs: 1600, Shards: 5},
	} {
		if fp := Registry(o)[0].Fingerprint; fp == base {
			t.Errorf("fingerprint %q ignores %s", fp, name)
		}
	}
	same := shrunk
	same.Seed, same.Repeats, same.ShardWorkers = 9, 3, 2
	if fp := Registry(same)[0].Fingerprint; fp != base {
		t.Errorf("fingerprint moved from %q to %q with result-neutral knobs", base, fp)
	}
}

// TestReplicatedDeterminismRealExperiments is the determinism regression on
// the real merge path: the same seeds through real (fluid-simulator-backed)
// experiments must produce byte-identical merged reports with -workers 1 and
// -workers 8. This catches map-iteration order leaking into cells as well as
// scheduling nondeterminism in the pool.
func TestReplicatedDeterminismRealExperiments(t *testing.T) {
	opts := Options{TraceJobs: 600, UniformJobs: 120}
	var blobs [][]byte
	for _, workers := range []int{1, 8} {
		exps, err := SelectRegistry(opts, "fig1", "fig7a", "fig8b")
		if err != nil {
			t.Fatal(err)
		}
		report, err := runner.Run(exps, runner.Options{Seeds: 3, BaseSeed: 1, Workers: workers})
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
		t.Errorf("replicated results differ between -workers 1 and -workers 8")
	}
}

// TestReplicatedClusterCells spot-checks the Fig. 5 cell flattening: every
// policy must expose bins, overall mean, normalized ratio and slowdown
// cells, and FAIR's normalized cell is 1 by construction.
func TestReplicatedClusterCells(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment in -short mode")
	}
	exps, err := SelectRegistry(Options{}, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	report, err := runner.Run(exps, runner.Options{Seeds: 1, BaseSeed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := report.Aggregate("fig5")
	if a == nil {
		t.Fatal("fig5 aggregate missing")
	}
	for _, name := range PolicyOrder {
		for _, key := range []string{"bin1", "bin2", "bin3", "bin4", "all", "norm", "slowdown_mean", "slowdown_p99", "jain"} {
			if a.Cell(name, key) == nil {
				t.Errorf("cell (%s, %s) missing", name, key)
			}
		}
	}
	fair := a.Cell(PolicyFair, "norm")
	if fair == nil || fair.Stats.Mean != 1 {
		t.Errorf("FAIR normalized = %+v, want exactly 1", fair)
	}
	mq := a.Cell(PolicyLASMQ, "norm")
	if mq == nil || mq.Stats.Mean <= 1 {
		t.Errorf("LAS_MQ normalized = %+v, want > 1 (beats Fair)", mq)
	}
}
