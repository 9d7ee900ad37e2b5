package experiments

import (
	"reflect"
	"testing"
)

// TestIncrementalMatchesFullAcrossRegistry is the end-to-end counterpart of
// the engine's differential test: every registered experiment, run at small
// scale over several seeds, must produce identical metric cells whether the
// task-level engine takes its incremental fast paths (the default) or
// re-invokes the policy every round (engine.Config.FullReschedule, switched
// on through the package's fullReschedule hook). Fluid- and geo-backed
// experiments don't branch on the knob, so for them this doubles as a
// same-seed determinism check.
func TestIncrementalMatchesFullAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry twice per seed")
	}
	t.Cleanup(func() { fullReschedule = false })
	base := shrunk
	for i, name := range RegistryNames() {
		i, name := i, name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				fullReschedule = true
				fullSample, err := Registry(base)[i].Run(seed)
				if err != nil {
					t.Fatalf("seed %d full: %v", seed, err)
				}
				fullReschedule = false
				incrSample, err := Registry(base)[i].Run(seed)
				if err != nil {
					t.Fatalf("seed %d incremental: %v", seed, err)
				}
				if !reflect.DeepEqual(fullSample.Cells, incrSample.Cells) {
					t.Fatalf("seed %d: cells differ between scheduling modes\n full: %+v\n incr: %+v",
						seed, fullSample.Cells, incrSample.Cells)
				}
			}
		})
	}
}
