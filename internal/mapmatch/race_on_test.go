//go:build race

package mapmatch

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins skip under it, as the other packages' pins do.
const raceEnabled = true
