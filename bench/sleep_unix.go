//go:build unix

package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks for d in the kernel. time.Sleep wakes through the
// netpoller, whose timeout has millisecond granularity on an idle process: it
// overshoots by about 0.6 ms here, as much as a whole hot_http request.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return is caught by the caller's spin
}
