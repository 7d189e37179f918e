package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// BenchmarkOpenSnapshot times how long a process takes to get a library
// serving from disk: OpenSnapshotVerified's header check, whole-file checksum
// stream and mmap, with data pages faulting in lazily. Files are written once
// per size and read page-cache-warm. Close (which waits for the asynchronous paging hints)
// stays outside the timer: the cell of record is time-to-serviceable.
func BenchmarkOpenSnapshot(b *testing.B) {
	for _, size := range []int{250_000, 1_000_000} {
		r := rand.New(rand.NewSource(int64(size)))
		lib := randomLibrary(r, size, 10_000, size/8)
		snapPath := filepath.Join(b.TempDir(), "lib.gsnp")
		if err := WriteSnapshotFile(snapPath, lib, nil, SnapshotOptions{}); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("impls=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap, err := OpenSnapshotVerified(nil, snapPath, nil)
				if err != nil {
					b.Fatal(err)
				}
				if snap.Library().NumImplementations() != size {
					b.Fatal("short load")
				}
				b.StopTimer()
				if err := snap.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
