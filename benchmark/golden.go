package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json pins, for -seed 1 and 2 at the full and the -quick sizes, the
// digest of every (workload, policy) run over the seed's own inputs (sweep
// 0). Any other seed is checked by invariants only; see checker.check.
//
//go:embed golden.json
var goldenJSON []byte

// goldenFile maps goldenKey to policy name to digest.
type goldenFile map[string]map[string]digest

var goldenSeeds = []int64{1, 2}

const goldenPath = "benchmark/golden.json"

func goldenKey(workload string, jobs int, genSeed int64) string {
	return fmt.Sprintf("%s/jobs=%d/seed=%d", workload, jobs, genSeed)
}

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// updateGolden recomputes every pinned digest, with the completion-order
// fold on, and writes path.
func updateGolden(path string) error {
	g := goldenFile{}
	for _, w := range workloads() {
		for _, quick := range []bool{false, true} {
			for _, seed := range goldenSeeds {
				o := options{seed: seed, quick: quick}
				inst, err := w.prepare(seed, o.size(w))
				if err != nil {
					return err
				}
				pinned := map[string]digest{}
				for _, policy := range policyOrder {
					d, err := inst.run(w.newPolicy(policy), hooks{fold: true})
					if err != nil {
						return fmt.Errorf("%s %s seed %d: %w", w.name, policy, seed, err)
					}
					pinned[policy] = d
				}
				g[goldenKey(w.name, inst.jobs, seed)] = pinned
			}
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
