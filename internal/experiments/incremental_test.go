package experiments

import "testing"

// TestIncrementalMatchesFullAcrossRegistry is the end-to-end counterpart of
// the engine's differential test: every registered experiment, run at small
// scale over several seeds with the task-level engine re-invoking the policy
// every round (engine.Config.FullReschedule, switched on through the
// package's fullReschedule hook), must produce the metric cells
// TestCatalogPinned pins for the default mode, which takes the incremental
// fast paths. Fluid- and geo-backed experiments don't branch on the knob, so
// for them this doubles as a same-seed determinism check.
func TestIncrementalMatchesFullAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry per seed")
	}
	pinned := pinnedDigests(t)
	t.Cleanup(func() { fullReschedule = false })
	fullReschedule = true
	for i, name := range RegistryNames() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				sample, err := Registry(shrunk)[i].Run(seed)
				if err != nil {
					t.Fatalf("seed %d full: %v", seed, err)
				}
				checkCellsPinned(t, pinned, name, seed, "full reschedule", sample.Cells)
			}
		})
	}
}
