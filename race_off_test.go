//go:build !race

package goalrec

const raceEnabled = false
