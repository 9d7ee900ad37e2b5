package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *runFile) endToEnd(workload string) *report {
	for _, r := range f.Reports {
		if r.Workload == workload && r.Mode == "end_to_end" {
			return r
		}
	}
	return nil
}

// compareFiles holds run b against run a (the parent): for every workload
// both measured and every end-to-end metric it prints the two medians, how
// much worse b is as a share of a, and the bound. A pair is a breach when b
// is worse by more than the bound; pairs within the bound whose min-max
// ranges overlap are unresolved, not unchanged. It returns 1 on a breach or
// when b failed a larger share of its operations.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRunFile(pathA)
	if err == nil {
		var b *runFile
		if b, err = readRunFile(pathB); err == nil {
			return compareRuns(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 1
}

func compareRuns(a, b *runFile, out io.Writer) int {
	code := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tworse by\tbound\tverdict")
	for _, ra := range a.Reports {
		rb := b.endToEnd(ra.Workload)
		if ra.Mode != "end_to_end" || rb == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := ra.Metrics[def.name], rb.Metrics[def.name]
			worse := (sb.Median - sa.Median) / sa.Median
			if def.better == "higher" {
				worse = -worse
			}
			verdict := "better"
			switch {
			case worse > def.bound:
				verdict = "BREACH"
				code = 1
			case sa.Min <= sb.Max && sb.Min <= sa.Max:
				verdict = "unresolved (spreads overlap)"
			case worse > 0:
				verdict = "worse, within bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%s\n",
				ra.Workload, def.name, sa.Median, sa.Unit, sb.Median, sb.Unit, 100*worse, 100*def.bound, verdict)
		}
		shareA := float64(ra.OpsFailed) / float64(max(1, ra.OpsAttempted))
		shareB := float64(rb.OpsFailed) / float64(max(1, rb.OpsAttempted))
		if shareB > shareA {
			fmt.Fprintf(tw, "%s\tops_failed\t%d of %d\t%d of %d\t\t\tBREACH\n",
				ra.Workload, ra.OpsFailed, ra.OpsAttempted, rb.OpsFailed, rb.OpsAttempted)
			code = 1
		}
	}
	tw.Flush()
	return code
}
