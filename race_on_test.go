//go:build race

package goalrec

// raceEnabled reports that the race detector is on: it allocates on its own,
// so the heap-budget tests skip themselves.
const raceEnabled = true
