//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins skip under it, as the other packages' pins do.
const raceEnabled = true
