//go:build race

package engine_test

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a random quarter of what is Put, so whether a run finds the pooled arena is
// chance and allocation counts mean nothing.
const raceEnabled = true
