//go:build linux || darwin

package server

import "syscall"

// pageFaults returns the process's minor and major page faults so far.
func pageFaults() (minor, major int64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	return int64(ru.Minflt), int64(ru.Majflt)
}
