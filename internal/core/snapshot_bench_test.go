package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// BenchmarkOpenSnapshot times how long a process takes to get a library
// serving from disk: OpenSnapshotVerified's header check, whole-file checksum
// stream and mmap, with data pages faulting in lazily. Files are written once
// per case and read page-cache-warm. Close (which waits for the asynchronous
// paging hints) stays outside the timer: the cell of record is
// time-to-serviceable. The id-level rows carry no vocabulary; the names rows
// are the bench shape's named library (250 000 implementations, 10 000
// actions, 125 000 goals), its name tables sealed into the image or, as in
// an image sealed before the tables were, built at open.
func BenchmarkOpenSnapshot(b *testing.B) {
	dir := b.TempDir()
	type openCase struct {
		name, path string
		impls      int
	}
	var cases []openCase
	for _, size := range []int{250_000, 1_000_000} {
		r := rand.New(rand.NewSource(int64(size)))
		path := filepath.Join(dir, fmt.Sprintf("lib-%d.gsnp", size))
		if err := WriteSnapshotFile(path, randomLibrary(r, size, 10_000, size/8), nil, SnapshotOptions{}); err != nil {
			b.Fatal(err)
		}
		cases = append(cases, openCase{fmt.Sprintf("impls=%d", size), path, size})
	}
	const size, nAct, nGoal = 250_000, 10_000, 125_000
	lib := randomLibrary(rand.New(rand.NewSource(size)), size, nAct, nGoal)
	vocab := &Vocabulary{Actions: NewInterner(nAct), Goals: NewInterner(nGoal)}
	for a := 0; a < lib.NumActions(); a++ {
		vocab.Actions.Intern("a" + strconv.Itoa(a))
	}
	for g := 0; g < lib.NumGoals(); g++ {
		vocab.Goals.Intern("g" + strconv.Itoa(g))
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, lib, vocab, SnapshotOptions{}); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		tables string
		image  []byte
	}{{"sealed", buf.Bytes()}, {"built", withoutNameTables(b, buf.Bytes())}} {
		path := filepath.Join(dir, "names-"+c.tables+".gsnp")
		if err := os.WriteFile(path, c.image, 0o644); err != nil {
			b.Fatal(err)
		}
		cases = append(cases, openCase{fmt.Sprintf("impls=%d/names=%s", size, c.tables), path, size})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap, err := OpenSnapshotVerified(nil, c.path, nil)
				if err != nil {
					b.Fatal(err)
				}
				if snap.Library().NumImplementations() != c.impls {
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

// withoutNameTables returns image as a writer that did not seal the name
// tables wrote it: the two table sections, which a vocabulary image without a
// source key or stamp carries last, dropped from the section table and the
// file, and the header and whole-file checksums sealed again.
func withoutNameTables(tb testing.TB, image []byte) []byte {
	tb.Helper()
	secs, _, err := snapshotSections(image, uint64(len(image)))
	if err != nil {
		tb.Fatal(err)
	}
	var kept []snapSection
	var end uint64
	for i := 0; i < len(secs); i++ {
		e := image[snapHeaderSize+snapSectSize*i:]
		s := secs[binary.LittleEndian.Uint32(e)]
		if s.id == secVocActTab || s.id == secVocGoalTab {
			continue
		}
		kept = append(kept, s)
		end = max(end, s.off+s.count*uint64(s.elem))
	}
	if len(kept) != len(secs)-2 {
		tb.Fatalf("the image carries %d name tables, want 2", len(secs)-len(kept))
	}
	out := append([]byte(nil), image[:end]...)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(kept)))
	for i, s := range kept {
		e := out[snapHeaderSize+snapSectSize*i:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], s.elem)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.count)
	}
	tableEnd := snapHeaderSize + snapSectSize*len(kept)
	crc := crc32.ChecksumIEEE(out[:60])
	binary.LittleEndian.PutUint32(out[60:], crc32.Update(crc, crc32.IEEETable, out[snapHeaderSize:tableEnd]))
	clear(out[tableEnd : tableEnd+2*snapSectSize]) // now padding, zero as a writer pads
	out = binary.LittleEndian.AppendUint32(out, snapFooterMagic)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[:end]))
}
