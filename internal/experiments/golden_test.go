package experiments_test

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"lasmq/internal/experiments"
	"lasmq/internal/runner"
)

// goldenNormalized parses full_results.txt and returns, per figure section,
// each row label's "norm(vs FAIR)" (the rightmost numeric column of the
// section's table). The golden file is the checked-in paper-scale
// reproduction; these ratios are its shape.
func goldenNormalized(t *testing.T, section string) map[string]float64 {
	t.Helper()
	f, err := os.Open("../../full_results.txt")
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	defer f.Close()

	out := make(map[string]float64)
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			in = strings.Contains(line, section)
			continue
		}
		if !in || line == "" || strings.HasPrefix(line, "[") {
			in = in && line != "" && !strings.HasPrefix(line, "[")
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || strings.HasPrefix(fields[0], "-") {
			continue
		}
		// Skip header rows (last column not numeric) and the slowdown
		// subtable (its label column repeats policies; the first numeric
		// parse wins, which is the normalized table since it comes first).
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		if _, dup := out[fields[0]]; !dup {
			out[fields[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no golden rows found for section %q", section)
	}
	return out
}

// clearOrder returns -1/+1 when a is clearly below/above b (relative margin),
// 0 when the pair is effectively tied.
func clearOrder(a, b, margin float64) int {
	if a < b*(1-margin) {
		return -1
	}
	if a > b*(1+margin) {
		return 1
	}
	return 0
}

// TestGoldenShapesSeeds1 regenerates the paper figures through the
// replication engine at -seeds 1 and asserts the checked-in
// full_results.txt shapes still hold: wherever the golden file clearly
// ranks two policies (ratios, not absolute values), the fresh run must rank
// them the same way. Trace experiments run at reduced length to stay inside
// test time; ratio orderings are scale-stable.
func TestGoldenShapesSeeds1(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration in -short mode")
	}
	opts := experiments.Options{TraceJobs: 3000, UniformJobs: 400}
	exps, err := experiments.SelectRegistry(opts, "fig5", "fig6", "fig7a", "fig7b", "fig8a")
	if err != nil {
		t.Fatal(err)
	}
	report, err := runner.Run(exps, runner.Options{Seeds: 1, BaseSeed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const margin = 0.20 // golden ratios must differ by >20 % to bind
	policies := []string{"LAS_MQ", "LAS", "FAIR", "FIFO"}

	checks := []struct {
		figure  string
		section string
	}{
		{figure: "fig5", section: "80 s mean arrival interval"},
		{figure: "fig6", section: "50 s mean arrival interval"},
		{figure: "fig7a", section: "Fig. 7a"},
		{figure: "fig7b", section: "Fig. 7b"},
	}
	for _, chk := range checks {
		golden := goldenNormalized(t, chk.section)
		agg := report.Aggregate(chk.figure)
		if agg == nil {
			t.Fatalf("%s aggregate missing", chk.figure)
		}
		for i := range policies {
			for j := i + 1; j < len(policies); j++ {
				a, b := policies[i], policies[j]
				ga, aok := golden[a]
				gb, bok := golden[b]
				if !aok || !bok {
					t.Fatalf("%s: golden rows missing for %s/%s", chk.figure, a, b)
				}
				ca, cb := agg.Cell(a, "norm"), agg.Cell(b, "norm")
				if ca == nil || cb == nil {
					t.Fatalf("%s: computed norm cells missing for %s/%s", chk.figure, a, b)
				}
				gCmp := clearOrder(ga, gb, margin)
				cCmp := clearOrder(ca.Stats.Mean, cb.Stats.Mean, margin)
				if gCmp != 0 && cCmp != 0 && gCmp != cCmp {
					t.Errorf("%s: golden ranks %s (%.2f) vs %s (%.2f) opposite to regenerated (%.2f vs %.2f)",
						chk.figure, a, ga, b, gb, ca.Stats.Mean, cb.Stats.Mean)
				}
			}
		}
	}

	// Fig. 8a shape: the golden sweep improves with the queue count and the
	// regenerated sweep must too — k=10 clearly beats k=1, no deep dips.
	golden8a := goldenNormalized(t, "Fig. 8a")
	agg := report.Aggregate("fig8a")
	if agg == nil {
		t.Fatal("fig8a aggregate missing")
	}
	if golden8a["10"] <= golden8a["1"] {
		t.Fatalf("golden fig8a lost its shape: k=10 %.2f vs k=1 %.2f", golden8a["10"], golden8a["1"])
	}
	k1, k10 := agg.Cell("k=1", "norm"), agg.Cell("k=10", "norm")
	if k1 == nil || k10 == nil {
		t.Fatal("fig8a cells missing")
	}
	if k10.Stats.Mean <= k1.Stats.Mean {
		t.Errorf("regenerated fig8a: k=10 (%.2f) no longer beats k=1 (%.2f)", k10.Stats.Mean, k1.Stats.Mean)
	}
	prev := 0.0
	for _, k := range []int{1, 2, 4, 5, 10} {
		c := agg.Cell(fmt.Sprintf("k=%d", k), "norm")
		if c == nil {
			t.Fatalf("fig8a cell k=%d missing", k)
		}
		if c.Stats.Mean < prev*0.9 {
			t.Errorf("fig8a no longer improves with k: k=%d at %.2f after %.2f", k, c.Stats.Mean, prev)
		}
		prev = c.Stats.Mean
	}
}
