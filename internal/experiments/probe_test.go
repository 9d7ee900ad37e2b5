package experiments

import (
	"io"
	"reflect"
	"testing"

	"lasmq/internal/obs"
)

// TestProbedMatchesUnprobedAcrossRegistry is the telemetry layer's
// end-to-end differential gate: every registered experiment, run at small
// scale over several seeds, must produce identical metric cells with and
// without a probe attached (every sink type fanned in). Options.Probe is
// deliberately excluded from the replication cache fingerprint; this test
// is what makes that exclusion sound.
func TestProbedMatchesUnprobedAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry twice per seed")
	}
	base := shrunk
	for i, name := range RegistryNames() {
		i, name := i, name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				plainSample, err := Registry(base)[i].Run(seed)
				if err != nil {
					t.Fatalf("seed %d unprobed: %v", seed, err)
				}
				probed := base
				probed.Probe = obs.Multi(obs.NewCounters(), obs.NewJSONL(io.Discard), obs.NewChromeTrace(),
					obs.NewRing(1<<12), obs.NewHistograms(), obs.NewSeries(50, 0))
				probedSample, err := Registry(probed)[i].Run(seed)
				if err != nil {
					t.Fatalf("seed %d probed: %v", seed, err)
				}
				if !reflect.DeepEqual(plainSample.Cells, probedSample.Cells) {
					t.Fatalf("seed %d: attaching a probe changed the experiment's cells\n plain: %+v\n probed: %+v",
						seed, plainSample.Cells, probedSample.Cells)
				}
			}
		})
	}
}
