//go:build race

package ring

// raceEnabled reports that the race detector is active; its
// instrumentation perturbs allocation counts, so AllocsPerRun
// assertions are skipped under -race.
const raceEnabled = true
