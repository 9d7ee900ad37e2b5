package runner

import (
	"fmt"
	"io"
	"strings"
)

// Table renders the aggregate as a fixed-width text table: one row per
// metric cell, mean ± 95 % CI plus the per-seed spread. With a single seed
// the ± column collapses to "-" (no interval exists).
func (a *Aggregate) Table() string {
	header := []string{"group", "key", "mean", "±95% CI", "min", "max", "seeds"}
	rows := make([][]string, 0, len(a.Cells))
	for i := range a.Cells {
		c := &a.Cells[i]
		ci := "-"
		if c.Stats.N >= 2 {
			ci = fmt.Sprintf("±%.4g", c.Stats.CI95)
		}
		rows = append(rows, []string{
			c.Group,
			c.Key,
			fmt.Sprintf("%.4g", c.Stats.Mean),
			ci,
			fmt.Sprintf("%.4g", c.Stats.Min),
			fmt.Sprintf("%.4g", c.Stats.Max),
			fmt.Sprintf("%d", c.Stats.N),
		})
	}
	return RenderTable(header, rows)
}

// WriteCSV emits every aggregate as CSV rows:
// experiment,group,key,n,mean,stddev,ci95,min,max.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,group,key,n,mean,stddev,ci95,min,max"); err != nil {
		return err
	}
	for i := range r.Aggregates {
		a := &r.Aggregates[i]
		for j := range a.Cells {
			c := &a.Cells[j]
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%g,%g,%g,%g,%g\n",
				a.Experiment, c.Group, c.Key,
				c.Stats.N, c.Stats.Mean, c.Stats.StdDev, c.Stats.CI95,
				c.Stats.Min, c.Stats.Max); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderTable renders rows as a fixed-width text table: the one layout of
// the aggregate tables here and of the experiments package's result tables.
func RenderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
