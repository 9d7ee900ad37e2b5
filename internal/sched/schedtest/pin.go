package schedtest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite the testdata pins of the tests run from what the code does now")

// Pinned holds got against the pinned file at path, failing t at the first
// line that differs, or rewrites the file when the test binary runs with
// -update-pinned.
func Pinned(t testing.TB, path string, got []byte) {
	t.Helper()
	if *updatePinned {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s line %d: got %q, pinned %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: %d lines, pinned %d", path, len(gotLines), len(wantLines))
}
