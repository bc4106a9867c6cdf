//go:build !race

package ring

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
