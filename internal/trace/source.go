package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"lasmq/internal/dist"
	"lasmq/internal/substrate"
)

// JobSpec is the flat trace job record — an alias of the substrate streaming
// kernel's canonical spec type (which fluid.JobSpec also aliases, so traces
// feed the simulators without this package importing one).
type JobSpec = substrate.JobSpec

// Source is the streaming trace interface (an alias of the substrate
// kernel's Source): Next yields one job at a time in arrival order, so
// consumers' memory is bounded by live jobs rather than trace length.
type Source = substrate.Source

// Collect drains a source into a materialized trace — the compatibility
// bridge from the streaming substrate back to the slice-based APIs.
func Collect(src Source) ([]JobSpec, error) {
	specs := make([]JobSpec, 0, 64)
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

// facebookSource streams the synthetic heavy-tailed trace without
// materializing it. The generator is not naively streamable: job sizes are
// renormalized by the whole trace's mean, and the arrival stream continues
// on the same RNG after every size draw. So construction runs a setup pass
// — replaying all size draws on the seed's RNG in O(1) memory to obtain the
// renormalization scale and leave that RNG positioned at the arrival stream
// — and Next re-draws sizes one at a time on a second RNG seeded
// identically. The emitted sequence is byte-identical to Facebook's.
type facebookSource struct {
	cfg      FacebookConfig
	sizes    rawSizes
	scale    float64
	arrivals *dist.PoissonProcess
	resize   *rand.Rand // replay RNG, positioned at size draw i
	i        int
}

// NewFacebookSource returns a streaming generator of the heavy-tailed trace:
// per-seed deterministic and byte-identical to the materialized Facebook.
// The source also has a Skip method, which substrate.Strided uses to pass
// over the jobs another shard keeps.
func NewFacebookSource(cfg FacebookConfig) (Source, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sizes := newRawSizes(&cfg)
	r := dist.New(cfg.Seed)
	var sum float64
	for i := 0; i < cfg.Jobs; i++ {
		sum += sizes.draw(r)
	}
	scale := cfg.MeanSize / (sum / float64(cfg.Jobs))
	arrivals, err := dist.NewPoissonProcess(r, cfg.MeanSize/(cfg.Load*cfg.Capacity))
	if err != nil {
		return nil, err
	}
	return &facebookSource{
		cfg:      cfg,
		sizes:    sizes,
		scale:    scale,
		arrivals: arrivals,
		resize:   dist.New(cfg.Seed),
	}, nil
}

func (s *facebookSource) Next() (JobSpec, bool, error) {
	if s.i >= s.cfg.Jobs {
		return JobSpec{}, false, nil
	}
	size := s.sizes.draw(s.resize) * s.scale
	if size > s.cfg.MaxSize {
		size = s.cfg.MaxSize
	}
	s.i++
	return JobSpec{
		ID:       s.i,
		Arrival:  s.arrivals.Next(),
		Size:     size,
		Width:    widthFor(size, s.cfg.WidthTaskDuration, s.cfg.Capacity),
		Priority: 1,
	}, true, nil
}

// Skip passes over the next job as Next would, consuming the same values of
// both RNGs and advancing the job ID, but computes no size transform, width
// or spec. It reports false once the trace is exhausted.
func (s *facebookSource) Skip() (bool, error) {
	if s.i >= s.cfg.Jobs {
		return false, nil
	}
	s.sizes.skip(s.resize)
	s.arrivals.Next()
	s.i++
	return true, nil
}

// csvSource streams a WriteCSV-format trace one record at a time (the csv
// reader buffers chunks of the input; no record set is ever materialized).
type csvSource struct {
	cr   *csv.Reader
	line int
	done bool
}

// NewCSVSource returns a streaming reader of the CSV trace format. The
// header is read and checked eagerly; each Next parses and validates one
// record with the same per-line errors ReadCSV reports.
func NewCSVSource(r io.Reader) (Source, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	want := []string{"id", "arrival", "size", "width", "priority"}
	if len(header) != len(want) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(header), len(want))
	}
	for i, col := range want {
		if header[i] != col {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], col)
		}
	}
	return &csvSource{cr: cr, line: 1}, nil
}

func (s *csvSource) Next() (JobSpec, bool, error) {
	if s.done {
		return JobSpec{}, false, nil
	}
	rec, err := s.cr.Read()
	if err == io.EOF {
		s.done = true
		return JobSpec{}, false, nil
	}
	if err != nil {
		s.done = true
		return JobSpec{}, false, fmt.Errorf("trace: read csv: %w", err)
	}
	s.line++
	id, err := strconv.Atoi(rec[0])
	if err != nil {
		return JobSpec{}, false, fmt.Errorf("trace: line %d: bad id %q", s.line, rec[0])
	}
	arrival, err := strconv.ParseFloat(rec[1], 64)
	if err != nil {
		return JobSpec{}, false, fmt.Errorf("trace: line %d: bad arrival %q", s.line, rec[1])
	}
	size, err := strconv.ParseFloat(rec[2], 64)
	if err != nil {
		return JobSpec{}, false, fmt.Errorf("trace: line %d: bad size %q", s.line, rec[2])
	}
	width, err := strconv.ParseFloat(rec[3], 64)
	if err != nil {
		return JobSpec{}, false, fmt.Errorf("trace: line %d: bad width %q", s.line, rec[3])
	}
	priority, err := strconv.Atoi(rec[4])
	if err != nil {
		return JobSpec{}, false, fmt.Errorf("trace: line %d: bad priority %q", s.line, rec[4])
	}
	spec := JobSpec{
		ID: id, Arrival: arrival, Size: size, Width: width, Priority: priority,
	}
	if err := validateSpec(&spec); err != nil {
		return JobSpec{}, false, fmt.Errorf("trace: line %d: %w", s.line, err)
	}
	return spec, true, nil
}
