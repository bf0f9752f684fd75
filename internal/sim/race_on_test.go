//go:build race

package sim

// raceEnabled reports whether the race detector is compiled in; the
// allocation ceilings skip under it, as the other packages' pins do.
const raceEnabled = true
