//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool randomly drops items, so allocation-count assertions on
// pooled paths are skipped.
const raceEnabled = true
