package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"lasmq/internal/runner"
	"lasmq/internal/sched/schedtest"
)

const catalogPinnedPath = "testdata/catalog_pinned.txt"

// cellsDigest folds a sample's cells, in order, into one FNV-1a hash: group,
// key and the bits of the value, so a NaN pins as exactly as any other number.
func cellsDigest(cells []runner.Cell) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cells {
		fmt.Fprintf(h, "%s\x00%s\x00", c.Group, c.Key)
		v := math.Float64bits(c.Value)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinnedKey names one registry row at one seed in catalogPinnedPath.
func pinnedKey(name string, seed int64) string { return fmt.Sprintf("%s %d", name, seed) }

// pinnedDigests reads catalogPinnedPath: one "name seed digest" line per
// registry row and seed.
func pinnedDigests(t *testing.T) map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(catalogPinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var name string
		var seed int64
		var digest uint64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d %x", &name, &seed, &digest); err != nil {
			t.Fatalf("%s: %q: %v", catalogPinnedPath, sc.Text(), err)
		}
		out[pinnedKey(name, seed)] = digest
	}
	return out
}

// checkCellsPinned fails t unless cells fold to the digest pinned for the row
// and seed; mode names the run in the failure.
func checkCellsPinned(t *testing.T, pinned map[string]uint64, name string, seed int64, mode string, cells []runner.Cell) {
	t.Helper()
	want, ok := pinned[pinnedKey(name, seed)]
	if !ok {
		t.Fatalf("%s seed %d: no pinned digest (go test ./internal/experiments -run TestCatalogPinned -update-pinned)", name, seed)
	}
	if got := cellsDigest(cells); got != want {
		t.Fatalf("%s seed %d %s: cells fold to %016x, pinned %016x\n cells: %+v", name, seed, mode, got, want, cells)
	}
}

// TestCatalogPinned holds every registry row's cells at shrunk scale, seeds
// 1-3, against catalogPinnedPath (go test ./internal/experiments -run
// TestCatalogPinned -update-pinned rewrites it). It is the registry's
// cross-binary oracle: the scheduling-mode and probe differentials hold their
// runs against the same digests instead of running the default mode beside
// them.
func TestCatalogPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry per seed")
	}
	var got bytes.Buffer
	for i, name := range RegistryNames() {
		for seed := int64(1); seed <= 3; seed++ {
			sample, err := Registry(shrunk)[i].Run(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			fmt.Fprintf(&got, "%s %d %016x\n", name, seed, cellsDigest(sample.Cells))
		}
	}
	schedtest.Pinned(t, catalogPinnedPath, got.Bytes())
}
