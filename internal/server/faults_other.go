//go:build !linux && !darwin

package server

// pageFaults reports no page faults: getrusage is not read on this platform.
func pageFaults() (minor, major int64) { return 0, 0 }
