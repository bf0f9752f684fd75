//go:build !race

package spatial

const raceEnabled = false
