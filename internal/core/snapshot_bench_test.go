package core

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkColdStart times the two ways a process can get a library serving
// from disk: the legacy binary codec (read + decode + rebuild every index)
// against the snapshot format (mmap + header/section-table validation, data
// pages faulting in lazily). Files are written once per size; both loads
// read a page-cache-warm file, so the gap measured is decode and index work.
func BenchmarkColdStart(b *testing.B) {
	for _, size := range []int{250_000, 1_000_000} {
		r := rand.New(rand.NewSource(int64(size)))
		lib := randomLibrary(r, size, 10_000, size/8)
		dir := b.TempDir()

		binPath := filepath.Join(dir, "lib.bin")
		f, err := os.Create(binPath)
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteBinary(f, lib); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		snapPath := filepath.Join(dir, "lib.gsnp")
		if err := WriteSnapshotFile(snapPath, lib, nil, SnapshotOptions{CompressPostings: true}); err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("decode/impls=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := os.Open(binPath)
				if err != nil {
					b.Fatal(err)
				}
				got, err := ReadBinary(bufio.NewReaderSize(f, 1<<20))
				f.Close()
				if err != nil {
					b.Fatal(err)
				}
				if got.NumImplementations() != size {
					b.Fatal("short load")
				}
			}
		})
		b.Run(fmt.Sprintf("mmap/impls=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap, err := OpenSnapshot(snapPath)
				if err != nil {
					b.Fatal(err)
				}
				if snap.Library().NumImplementations() != size {
					b.Fatal("short load")
				}
				if err := snap.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenSnapshotAdvise isolates what the open-time paging hints cost:
// the same mmap open with the per-section madvise calls enabled vs disabled.
// The hint budget must stay in the noise of an open — the eager page-in of
// large spans belongs to the optional Warmup, not here.
func BenchmarkOpenSnapshotAdvise(b *testing.B) {
	const size = 250_000
	r := rand.New(rand.NewSource(int64(size)))
	lib := randomLibrary(r, size, 10_000, size/8)
	snapPath := filepath.Join(b.TempDir(), "lib.gsnp")
	if err := WriteSnapshotFile(snapPath, lib, nil, SnapshotOptions{CompressPostings: true}); err != nil {
		b.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("madvise=%t", on), func(b *testing.B) {
			SetSnapshotMadvise(on)
			defer SetSnapshotMadvise(true)
			// Close (which syncs the async hint pass) stays outside the
			// timer: the cell of record is time-to-serviceable, as in
			// BenchmarkColdStart.
			for i := 0; i < b.N; i++ {
				snap, err := OpenSnapshot(snapPath)
				if err != nil {
					b.Fatal(err)
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
