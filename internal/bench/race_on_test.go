//go:build race

package bench

// raceEnabled lets tests that compare timings skip under the race
// detector, whose instrumentation slows kernels unevenly.
const raceEnabled = true
