//go:build race

package core

// raceEnabled reports that the race detector is on: it multiplies run time
// and allocates on its own, so the full-size and allocation-budget tests
// skip themselves.
const raceEnabled = true
