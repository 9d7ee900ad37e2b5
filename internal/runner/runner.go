// Package runner is the concurrent experiment-replication engine: it fans
// every registered experiment out over N seeds on a bounded worker pool,
// serves completed (experiment, seed) cells from a content-addressed on-disk
// cache, and merges the per-seed samples deterministically into
// cross-replication aggregates (mean ± 95 % t-interval per metric cell).
//
// Experiments are pure functions of the seed: the same (name, fingerprint,
// seed) triple must always produce the same Sample, which is what makes the
// cache sound and the merged report byte-identical regardless of worker
// count or completion order.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"lasmq/internal/stats"
)

// Cell is one scalar metric of an experiment sample: Group names the series
// (typically a policy), Key the point within it (a bin, a sweep value, or
// "all"), and Value the measurement.
type Cell struct {
	Group string  `json:"group"`
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// Sample is one experiment's complete result at one seed. Cells must be
// emitted in a deterministic order (the experiment's canonical reporting
// order), never from bare map iteration.
type Sample struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Cells      []Cell `json:"cells"`
}

// Experiment is one entry of the replication table.
type Experiment struct {
	// Name identifies the experiment ("fig5", "fig8a", ...).
	Name string
	// Fingerprint captures every configuration knob that changes the result
	// (trace lengths, workload scale); it keys the cache alongside the name
	// and seed so runs at different scales never collide.
	Fingerprint string
	// Run produces the experiment's sample for one seed. It must be pure:
	// no shared state, same seed in, same cells out.
	Run func(seed int64) (*Sample, error)
}

// Options tune a replicated run.
type Options struct {
	// Seeds is the number of replications; seed values are
	// BaseSeed .. BaseSeed+Seeds-1. 0 means the default, 1.
	Seeds int
	// BaseSeed is the first seed. Default 1.
	BaseSeed int64
	// Workers bounds the worker pool. 0 means the default, GOMAXPROCS.
	Workers int
	// CacheDir, when non-empty, enables the content-addressed result cache
	// (one JSON file per (experiment, fingerprint, seed) cell).
	CacheDir string
}

// Defaults fills unset fields, and rejects a negative count with an error
// naming the field.
func (o Options) Defaults() (Options, error) {
	if o.Seeds < 0 {
		return o, fmt.Errorf("runner: Seeds must be >= 0 (0 = 1 seed), got %d", o.Seeds)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("runner: Workers must be >= 0 (0 = GOMAXPROCS), got %d", o.Workers)
	}
	if o.Seeds == 0 {
		o.Seeds = 1
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// AggregateCell is one metric cell merged across all seeds.
type AggregateCell struct {
	Group string `json:"group"`
	Key   string `json:"key"`
	// Stats is the cross-replication aggregate (mean, stddev, 95 % CI,
	// min/max spread).
	Stats stats.Replication `json:"stats"`
	// PerSeed holds the metric's value per replication, ordered by seed.
	PerSeed []float64 `json:"per_seed"`
}

// Aggregate is one experiment merged across all seeds.
type Aggregate struct {
	Experiment string          `json:"experiment"`
	Seeds      []int64         `json:"seeds"`
	Cells      []AggregateCell `json:"cells"`
}

// Report is a full replicated run.
type Report struct {
	// Aggregates are ordered as the experiments were registered.
	Aggregates []Aggregate `json:"aggregates"`
	// CacheHits and CacheMisses count cells served from / written to the
	// cache (both zero when caching is disabled).
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
}

// Aggregate returns the named experiment's aggregate, or nil.
func (r *Report) Aggregate(name string) *Aggregate {
	for i := range r.Aggregates {
		if r.Aggregates[i].Experiment == name {
			return &r.Aggregates[i]
		}
	}
	return nil
}

// Cell returns the aggregate cell for (group, key), or nil.
func (a *Aggregate) Cell(group, key string) *AggregateCell {
	for i := range a.Cells {
		if a.Cells[i].Group == group && a.Cells[i].Key == key {
			return &a.Cells[i]
		}
	}
	return nil
}

// cellJob is one (experiment, seed) unit of work.
type cellJob struct {
	exp     int // index into the experiment table
	seedIdx int // index into the seed sequence
	seed    int64
}

// Run fans the experiments out over the seeds on a bounded worker pool and
// merges the samples. The merge is deterministic: samples land in a grid
// indexed by (experiment, seed) before aggregation, so worker count and
// completion order never change the report.
func Run(exps []Experiment, opts Options) (*Report, error) {
	opts, err := opts.Defaults()
	if err != nil {
		return nil, err
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("runner: no experiments registered")
	}
	names := make(map[string]bool, len(exps))
	for _, e := range exps {
		if e.Name == "" || e.Run == nil {
			return nil, fmt.Errorf("runner: experiment with empty name or nil Run")
		}
		if names[e.Name] {
			return nil, fmt.Errorf("runner: duplicate experiment %q", e.Name)
		}
		names[e.Name] = true
	}

	var cache *diskCache
	if opts.CacheDir != "" {
		c, err := newDiskCache(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		cache = c
	}

	seeds := make([]int64, opts.Seeds)
	for i := range seeds {
		seeds[i] = opts.BaseSeed + int64(i)
	}

	// The sample grid: grid[exp][seedIdx]. Workers write disjoint slots, so
	// no lock is needed beyond the WaitGroup's happens-before edge.
	grid := make([][]*Sample, len(exps))
	errs := make([][]error, len(exps))
	for i := range grid {
		grid[i] = make([]*Sample, len(seeds))
		errs[i] = make([]error, len(seeds))
	}

	jobs := make(chan cellJob)
	var hitCount, missCount int
	var counterMu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				e := exps[jb.exp]
				sample, fromCache, err := runCell(e, jb.seed, cache)
				if err != nil {
					errs[jb.exp][jb.seedIdx] = err
					continue
				}
				grid[jb.exp][jb.seedIdx] = sample
				counterMu.Lock()
				if fromCache {
					hitCount++
				} else if cache != nil {
					missCount++
				}
				counterMu.Unlock()
			}
		}()
	}
	for ei := range exps {
		for si, seed := range seeds {
			jobs <- cellJob{exp: ei, seedIdx: si, seed: seed}
		}
	}
	close(jobs)
	wg.Wait()

	// Surface the first error in registration-then-seed order so the failure
	// reported is deterministic too.
	for ei := range exps {
		for si := range seeds {
			if err := errs[ei][si]; err != nil {
				return nil, fmt.Errorf("runner: %s seed %d: %w", exps[ei].Name, seeds[si], err)
			}
		}
	}

	report := &Report{
		Aggregates:  make([]Aggregate, 0, len(exps)),
		CacheHits:   hitCount,
		CacheMisses: missCount,
	}
	for ei := range exps {
		agg, err := merge(exps[ei].Name, seeds, grid[ei])
		if err != nil {
			return nil, err
		}
		report.Aggregates = append(report.Aggregates, *agg)
	}
	return report, nil
}

// runCell computes or loads one (experiment, seed) sample.
func runCell(e Experiment, seed int64, cache *diskCache) (*Sample, bool, error) {
	var key string
	if cache != nil {
		key = cacheKey(e.Name, e.Fingerprint, seed)
		if s, ok := cache.load(key, e.Name, seed); ok {
			return s, true, nil
		}
	}
	s, err := e.Run(seed)
	if err != nil {
		return nil, false, err
	}
	if s == nil {
		return nil, false, fmt.Errorf("nil sample")
	}
	if s.Experiment == "" {
		s.Experiment = e.Name
	}
	if s.Experiment != e.Name {
		return nil, false, fmt.Errorf("sample labeled %q", s.Experiment)
	}
	s.Seed = seed
	if cache != nil {
		if err := cache.store(key, s); err != nil {
			return nil, false, err
		}
	}
	return s, false, nil
}

// merge folds one experiment's per-seed samples into an Aggregate. Every
// sample must expose the same cell set; the first seed's cell order is the
// canonical order (experiments emit cells deterministically, so all seeds
// agree on it up to values).
func merge(name string, seeds []int64, samples []*Sample) (*Aggregate, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("runner: %s: no samples", name)
	}
	ref := samples[0]
	index := make(map[[2]string]int, len(ref.Cells))
	for i, c := range ref.Cells {
		k := [2]string{c.Group, c.Key}
		if _, dup := index[k]; dup {
			return nil, fmt.Errorf("runner: %s: duplicate cell (%s, %s)", name, c.Group, c.Key)
		}
		index[k] = i
	}
	perCell := make([][]float64, len(ref.Cells))
	for i := range perCell {
		perCell[i] = make([]float64, len(samples))
	}
	for si, s := range samples {
		if len(s.Cells) != len(ref.Cells) {
			return nil, fmt.Errorf("runner: %s: seed %d produced %d cells, seed %d produced %d",
				name, seeds[si], len(s.Cells), seeds[0], len(ref.Cells))
		}
		for _, c := range s.Cells {
			i, ok := index[[2]string{c.Group, c.Key}]
			if !ok {
				return nil, fmt.Errorf("runner: %s: seed %d emitted unknown cell (%s, %s)",
					name, seeds[si], c.Group, c.Key)
			}
			perCell[i][si] = c.Value
		}
	}
	agg := &Aggregate{
		Experiment: name,
		Seeds:      append([]int64(nil), seeds...),
		Cells:      make([]AggregateCell, len(ref.Cells)),
	}
	for i, c := range ref.Cells {
		agg.Cells[i] = AggregateCell{
			Group:   c.Group,
			Key:     c.Key,
			Stats:   stats.Replicate(perCell[i]),
			PerSeed: perCell[i],
		}
	}
	return agg, nil
}
