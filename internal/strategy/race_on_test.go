//go:build race

package strategy

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random quarter of its Puts, so per-query allocation figures include
// re-created scratch and are not meaningful.
const raceEnabled = true
