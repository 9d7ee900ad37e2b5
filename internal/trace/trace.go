// Package trace provides the trace substrate for the paper's simulations.
//
// The paper's heavy-tailed workload comes from a 2010 Facebook production
// trace (24,443 jobs) that is not publicly redistributable; we synthesize an
// equivalent: heavy-tailed normalized job sizes (lognormal body with a
// bounded Pareto tail), renormalized so the mean size is ~20 (the value the
// paper reports for the normalized trace) and arrivals form a Poisson
// process at load 0.9. The light-tailed workload is the paper's exactly:
// 10,000 jobs, every size 10,000, submitted as a batch.
//
// Traces round-trip through a simple CSV format so runs are reproducible and
// externally-supplied traces can be replayed.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"lasmq/internal/dist"
)

// FacebookConfig controls synthesis of the heavy-tailed trace.
type FacebookConfig struct {
	// Jobs is the trace length (paper: 24,443).
	Jobs int
	// Load is the offered load (paper: 0.9).
	Load float64
	// Capacity is the simulated cluster capacity in containers; arrivals are
	// scaled so the load holds at this capacity.
	Capacity float64
	// MeanSize is the mean normalized job size (the paper reports ~20).
	MeanSize float64
	// Sigma is the lognormal shape of the size body.
	Sigma float64
	// TailFraction of jobs is drawn from a bounded Pareto tail instead of
	// the lognormal body, deepening the heavy tail.
	TailFraction float64
	// TailAlpha is the Pareto shape of the tail (close to 1 = very heavy).
	TailAlpha float64
	// MaxSize truncates job sizes (the paper's normalized trace tops out
	// below the fifth queue threshold, i.e. ~10^4 with alpha0=1, step 10).
	MaxSize float64
	// WidthTaskDuration converts a job's size into its parallelism cap:
	// width = clamp(ceil(size / WidthTaskDuration), 1, Capacity). Small
	// values make large jobs cluster-wide, reproducing FIFO's head-of-line
	// collapse on the heavy-tailed trace.
	WidthTaskDuration float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultFacebookConfig returns the Fig. 7a / Fig. 8 configuration.
func DefaultFacebookConfig() FacebookConfig {
	return FacebookConfig{
		Jobs:              24443,
		Load:              0.9,
		Capacity:          20,
		MeanSize:          20,
		Sigma:             2.0,
		TailFraction:      0.05,
		TailAlpha:         1.1,
		MaxSize:           1e4,
		WidthTaskDuration: 0.25,
	}
}

func (c *FacebookConfig) validate() error {
	if c.Jobs <= 0 {
		return fmt.Errorf("trace: jobs must be positive, got %d", c.Jobs)
	}
	// Every float check is written so that NaN fails it.
	if !(c.Load > 0 && c.Load < 2) {
		return fmt.Errorf("trace: load must be in (0,2), got %v", c.Load)
	}
	if !positive(c.Capacity) {
		return fmt.Errorf("trace: capacity must be finite and positive, got %v", c.Capacity)
	}
	if !positive(c.MeanSize) {
		return fmt.Errorf("trace: mean size must be finite and positive, got %v", c.MeanSize)
	}
	if !(c.Sigma >= 0) || math.IsInf(c.Sigma, 1) {
		return fmt.Errorf("trace: sigma must be finite and >= 0, got %v", c.Sigma)
	}
	if !(c.TailFraction >= 0 && c.TailFraction <= 1) {
		return fmt.Errorf("trace: tail fraction must be in [0,1], got %v", c.TailFraction)
	}
	if c.TailFraction > 0 && !positive(c.TailAlpha) {
		return fmt.Errorf("trace: tail alpha must be finite and positive, got %v", c.TailAlpha)
	}
	if !positive(c.MaxSize) {
		return fmt.Errorf("trace: max size must be finite and positive, got %v", c.MaxSize)
	}
	if !positive(c.WidthTaskDuration) {
		return fmt.Errorf("trace: width task duration must be finite and positive, got %v", c.WidthTaskDuration)
	}
	return nil
}

// Facebook synthesizes the heavy-tailed trace, materialized. It is a
// compatibility wrapper over NewFacebookSource and yields the identical
// sequence.
func Facebook(cfg FacebookConfig) ([]JobSpec, error) {
	src, err := NewFacebookSource(cfg)
	if err != nil {
		return nil, err
	}
	specs := make([]JobSpec, 0, cfg.Jobs)
	for {
		spec, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return specs, nil
		}
		specs = append(specs, spec)
	}
}

// rawSizes draws raw (pre-renormalization) job sizes: a lognormal body
// with a bounded Pareto tail, clamped to [1e-3, MaxSize]. Its distributions
// compute their constants once per configuration; the setup pass and Next
// both draw through it, so a size draw consumes the same RNG values on both.
type rawSizes struct {
	tailFraction, maxSize float64
	tail                  dist.BoundedParetoDist
	body                  dist.LognormalMeanDist
}

func newRawSizes(cfg *FacebookConfig) rawSizes {
	return rawSizes{
		tailFraction: cfg.TailFraction,
		maxSize:      cfg.MaxSize,
		tail:         dist.NewBoundedPareto(cfg.TailAlpha, cfg.MeanSize, cfg.MaxSize),
		body:         dist.NewLognormalMean(cfg.MeanSize/2, cfg.Sigma),
	}
}

// draw draws one raw size.
func (d *rawSizes) draw(r *rand.Rand) float64 {
	var s float64
	if r.Float64() < d.tailFraction {
		s = d.tail.Draw(r)
	} else {
		s = d.body.Draw(r)
	}
	if s > d.maxSize {
		s = d.maxSize
	}
	if s < 1e-3 {
		s = 1e-3
	}
	return s
}

// skip consumes the RNG values one draw would, without the transforms.
func (d *rawSizes) skip(r *rand.Rand) {
	if r.Float64() < d.tailFraction {
		d.tail.Skip(r)
	} else {
		d.body.Skip(r)
	}
}

func widthFor(size, taskDuration, capacity float64) float64 {
	w := math.Ceil(size / taskDuration)
	if w < 1 {
		w = 1
	}
	if w > capacity {
		w = capacity
	}
	return w
}

// Uniform builds the paper's light-tailed workload: n jobs of identical size
// submitted together at time zero with unit width (the paper simulates them
// on a normalized unit-capacity cluster). Trace jobs carry equal priority:
// the random [1,5] priorities are a testbed-workload detail, and equal
// priorities make the Fair baseline degrade to exact processor sharing, the
// behaviour the paper's Fig. 7b reports.
func Uniform(n int, size float64, seed int64) ([]JobSpec, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: jobs must be positive, got %d", n)
	}
	if !positive(size) {
		return nil, fmt.Errorf("trace: size must be finite and positive, got %v", size)
	}
	_ = seed // retained for API stability; the uniform trace is deterministic
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{
			ID:       i + 1,
			Arrival:  0,
			Size:     size,
			Width:    1,
			Priority: 1,
		}
	}
	return specs, nil
}

// WriteCSV serializes a trace as CSV with a header row:
// id,arrival,size,width,priority.
func WriteCSV(w io.Writer, specs []JobSpec) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "arrival", "size", "width", "priority"}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i := range specs {
		s := &specs[i]
		record := []string{
			strconv.Itoa(s.ID),
			strconv.FormatFloat(s.Arrival, 'g', -1, 64),
			strconv.FormatFloat(s.Size, 'g', -1, 64),
			strconv.FormatFloat(s.Width, 'g', -1, 64),
			strconv.Itoa(s.Priority),
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("trace: write job %d: %w", s.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV, materialized. It is a
// compatibility wrapper over NewCSVSource, which streams records in chunks
// instead of loading the whole file; the records (and per-line errors) are
// the same, though a malformed record past an invalid one now surfaces the
// first error in line order rather than the CSV-syntax error first.
func ReadCSV(r io.Reader) ([]JobSpec, error) {
	src, err := NewCSVSource(r)
	if err != nil {
		return nil, err
	}
	return Collect(src)
}

// positive reports whether x is finite and > 0; NaN is not.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// validateSpec rejects trace rows no simulator run could make sense of:
// non-finite or negative arrivals, non-positive or non-finite sizes and
// widths (strconv accepts "NaN", "Inf" and overflow-huge exponents that
// round to +Inf — all of which would poison a simulation silently rather
// than fail it).
func validateSpec(s *JobSpec) error {
	if math.IsNaN(s.Arrival) || math.IsInf(s.Arrival, 0) || s.Arrival < 0 {
		return fmt.Errorf("arrival %v out of range", s.Arrival)
	}
	if math.IsNaN(s.Size) || math.IsInf(s.Size, 0) || s.Size <= 0 {
		return fmt.Errorf("size %v out of range", s.Size)
	}
	if math.IsNaN(s.Width) || math.IsInf(s.Width, 0) || s.Width <= 0 {
		return fmt.Errorf("width %v out of range", s.Width)
	}
	if s.Priority < 1 {
		return fmt.Errorf("priority %d out of range", s.Priority)
	}
	return nil
}
