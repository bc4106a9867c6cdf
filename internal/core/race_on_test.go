//go:build race

package core

// raceEnabled reports that the race detector is active; its
// instrumentation perturbs allocation counts and makes sync.Pool drop
// entries at random, so allocation assertions are skipped under -race.
const raceEnabled = true
