package experiments

import (
	"io"
	"testing"

	"lasmq/internal/obs"
)

// TestProbedMatchesUnprobedAcrossRegistry is the telemetry layer's
// end-to-end differential gate: every registered experiment, run at small
// scale over several seeds with a probe attached (every sink type fanned in),
// must produce the metric cells TestCatalogPinned pins for unprobed runs.
// Options.Probe is deliberately excluded from the replication cache
// fingerprint; this test is what makes that exclusion sound.
func TestProbedMatchesUnprobedAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry per seed")
	}
	pinned := pinnedDigests(t)
	for i, name := range RegistryNames() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				probed := shrunk
				probed.Probe = obs.Multi(obs.NewCounters(), obs.NewJSONL(io.Discard), obs.NewChromeTrace(),
					obs.NewRing(1<<12), obs.NewHistograms(), obs.NewSeries(50))
				sample, err := Registry(probed)[i].Run(seed)
				if err != nil {
					t.Fatalf("seed %d probed: %v", seed, err)
				}
				checkCellsPinned(t, pinned, name, seed, "probed", sample.Cells)
			}
		})
	}
}
