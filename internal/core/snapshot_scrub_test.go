package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"goalrec/internal/faultfs"
)

// TestSnapshotChecksumFooter: a fresh snapshot scrubs clean; flipping any
// single byte — header, section payload, or padding — fails the scrub.
func TestSnapshotChecksumFooter(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 7)
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	if err := ScrubSnapshotFile(nil, path); err != nil {
		t.Fatalf("scrub of a fresh snapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshotChecksum(bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("VerifySnapshotChecksum: %v", err)
	}
	// Flip one byte at a spread of offsets, including deep in section data
	// where the header CRC cannot see, and at the end of the file just before
	// the footer.
	for _, off := range []int{0, 17, snapHeaderSize + 3, len(data) / 2, len(data) - snapFooterSize - 1} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x40
		if err := VerifySnapshotChecksum(bytes.NewReader(corrupt), int64(len(corrupt))); err == nil {
			t.Fatalf("flip at %d passed the checksum scrub", off)
		}
	}
}

// TestScrubSnapshotFileDetectsCorruption: a bit flip in a section body slips
// past the header CRC (all OpenSnapshotBytes checks) but not past the
// scrubber.
func TestScrubSnapshotFileDetectsCorruption(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 8)
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotBytes(data); err != nil {
		t.Fatalf("the header CRC should not see a section-body flip: %v", err)
	}
	err = ScrubSnapshotFile(nil, path)
	if err == nil {
		t.Fatal("scrub missed a section-body bit flip")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("scrub error = %v, want a checksum mismatch", err)
	}
}

// TestScrubSnapshotFileLegacy: an image without a footer (pre-footer format,
// simulated by truncating it away) falls back to structural verification and
// still passes.
func TestScrubSnapshotFileLegacy(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 9)
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := data[:len(data)-snapFooterSize]
	if err := VerifySnapshotChecksum(bytes.NewReader(legacy), int64(len(legacy))); !errors.Is(err, ErrNoChecksum) {
		t.Fatalf("footerless image: %v, want ErrNoChecksum", err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScrubSnapshotFile(nil, path); err != nil {
		t.Fatalf("structural fallback scrub: %v", err)
	}
}

// TestWriteSnapshotFileFaults: injected failures at every step of the atomic
// write (temp create, write, sync, close, rename, dir sync) surface an error
// and never leave a renamed-in-place snapshot behind; a one-shot fault heals
// on retry.
func TestWriteSnapshotFileFaults(t *testing.T) {
	lib := snapTestLibrary(t, 200, 30, 10)
	for _, tc := range []struct {
		name string
		rule faultfs.Rule
	}{
		{"create-temp", faultfs.Rule{Op: faultfs.OpCreateTemp, Err: faultfs.EIO, Once: true}},
		{"write", faultfs.Rule{Op: faultfs.OpWrite, Err: faultfs.ENOSPC, Once: true}},
		{"short-write", faultfs.Rule{Op: faultfs.OpWrite, Short: 100, Err: faultfs.ENOSPC, Once: true}},
		{"sync", faultfs.Rule{Op: faultfs.OpSync, Err: faultfs.EIO, Once: true}},
		{"close", faultfs.Rule{Op: faultfs.OpClose, Err: faultfs.EIO, Once: true}},
		{"rename", faultfs.Rule{Op: faultfs.OpRename, Err: faultfs.EIO, Once: true}},
		{"dir-sync", faultfs.Rule{Op: faultfs.OpSyncDir, Err: faultfs.EIO, Once: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "lib.gsnp")
			inj := faultfs.NewInjector(nil)
			inj.Fail(tc.rule)
			err := WriteSnapshotFileFS(inj, path, lib, nil, SnapshotOptions{})
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted write = %v, want injected error", err)
			}
			// Everything up to rename must leave no visible snapshot. The
			// rename and dir-sync faults may leave one (rename is the commit
			// point); anything present must scrub clean.
			if _, serr := os.Stat(path); serr == nil {
				if verr := ScrubSnapshotFile(nil, path); verr != nil {
					t.Fatalf("visible snapshot after %s fault fails scrub: %v", tc.name, verr)
				}
			} else if tc.name == "dir-sync" {
				t.Fatalf("dir-sync fault happens after the rename; snapshot should exist: %v", serr)
			}
			// One-shot fault: a retry on the same path succeeds end to end.
			if err := WriteSnapshotFileFS(inj, path, lib, nil, SnapshotOptions{}); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if err := ScrubSnapshotFile(inj, path); err != nil {
				t.Fatalf("scrub after retry: %v", err)
			}
			snap, err := OpenSnapshotVerified(inj, path, nil)
			if err != nil {
				t.Fatalf("open after retry: %v", err)
			}
			defer snap.Close()
			assertLibrariesEqual(t, lib, snap.Library())
		})
	}
}

// TestVerifySnapshotChecksumAnyBuffer: the streaming verifier gives the same
// verdicts whatever its buffer size — in particular when the 8-byte footer
// straddles two reads — on a clean image, a flipped byte and a lost footer.
func TestVerifySnapshotChecksumAnyBuffer(t *testing.T) {
	lib := snapTestLibrary(t, 500, 40, 11)
	var img bytes.Buffer
	if err := WriteSnapshot(&img, lib, nil, SnapshotOptions{SourceKey: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	data := img.Bytes()
	size := int64(len(data))
	end := size - snapFooterSize
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x04
	straddled := 0
	for buf := int64(snapHeadMax); buf < snapHeadMax+1500; buf++ {
		if end%buf > buf-snapFooterSize {
			straddled++
		}
		if err := verifySnapshotChecksum(bytes.NewReader(data), size, buf); err != nil {
			t.Fatalf("buffer %d: clean image: %v", buf, err)
		}
		if err := verifySnapshotChecksum(bytes.NewReader(flipped), size, buf); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("buffer %d: flipped byte: %v, want ErrCorruptSnapshot", buf, err)
		}
		if err := verifySnapshotChecksum(bytes.NewReader(data[:end]), end, buf); !errors.Is(err, ErrNoChecksum) {
			t.Fatalf("buffer %d: footerless image: %v, want ErrNoChecksum", buf, err)
		}
	}
	if straddled == 0 {
		t.Fatalf("no buffer size in the sweep split the footer of a %d-byte image", size)
	}
	// A reader that fails is an I/O error, not proof of corruption.
	if err := VerifySnapshotChecksum(bytes.NewReader(data[:size/2]), size); err == nil || errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("short reader: %v, want a bare read error", err)
	}
}

// TestScrubSnapshotFileStreams: scrubbing reads through a fixed buffer, so a
// snapshot of tens of megabytes costs a few megabytes of heap, not its size.
func TestScrubSnapshotFileStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 32 MB snapshot")
	}
	lib := snapTestLibrary(t, 900_000, 50_000, 12)
	path := filepath.Join(t.TempDir(), "big.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 32<<20 {
		t.Fatalf("snapshot is %d bytes; the test wants at least 32 MiB", fi.Size())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ScrubSnapshotFile(nil, path); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("scrubbing a %d-byte snapshot allocated %d bytes, want < 4 MiB", fi.Size(), got)
	}
}

// verifiedOpenFixture holds one library and images of it written with and
// without a source key and stamp, for the OpenSnapshotVerified tables.
type verifiedOpenFixture struct {
	lib                 *Library
	key                 []byte
	stamp               FileStamp
	stamped, keyed      []byte
	unkeyed, compressed []byte
	stampAt             uint64 // offset of the source-stamp section in stamped
	// vocab names lib's ids. namePastBlob is an image of both whose goal
	// offset 1 lies past the goal-name blob, sumFlipped one whose sealed
	// vocabulary checksum has a bit flipped, and sumPastNames one whose
	// checksum claims more actions than the dictionary holds, each under a
	// footer sealed over it as a writer would.
	vocab                                  *Vocabulary
	namePastBlob, sumFlipped, sumPastNames []byte
	// gaCountRaised is stamped with the first stored GA count one higher,
	// and gaRowEmptied with the end offset of the first stored GA row moved
	// to its start — a goal whose implementations share an action left
	// without a row — each under a footer sealed over it.
	gaCountRaised, gaRowEmptied []byte
}

func newVerifiedOpenFixture(t *testing.T) *verifiedOpenFixture {
	t.Helper()
	f := &verifiedOpenFixture{
		lib:   snapTestLibrary(t, 500, 40, 13),
		key:   []byte("source-a"),
		stamp: FileStamp{Size: 22356395, Mtime: 1_700_000_000_123_456_789, Ctime: 1_700_000_001_000_000_001, Ino: 9781261, Dev: 0xfe00},
	}
	image := func(opts SnapshotOptions) []byte {
		var b bytes.Buffer
		if err := WriteSnapshot(&b, f.lib, nil, opts); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	f.stamped = image(SnapshotOptions{SourceKey: f.key, SourceStamp: f.stamp})
	f.keyed = image(SnapshotOptions{SourceKey: f.key})
	f.unkeyed = image(SnapshotOptions{})
	f.compressed = image(SnapshotOptions{})
	resealCompressedFlag(t, f.compressed, true)
	d, err := DescribeSnapshot(f.stamped)
	if err != nil || d.SourceKey != string(f.key) || d.SourceStamp == nil || *d.SourceStamp != f.stamp {
		t.Fatalf("DescribeSnapshot source key %q, stamp %v, err %v", d.SourceKey, d.SourceStamp, err)
	}
	path := filepath.Join(t.TempDir(), "stamped.gsnp")
	if err := os.WriteFile(path, f.stamped, 0o644); err != nil {
		t.Fatal(err)
	}
	if df, err := DescribeSnapshotFile(nil, path); err != nil || !reflect.DeepEqual(df, d) {
		t.Fatalf("DescribeSnapshotFile = %+v, %v; DescribeSnapshot of its bytes %+v", df, err, d)
	}
	ga := make(map[string]SnapshotSectionInfo)
	for _, s := range d.Sections {
		if s.Name == "source-stamp" {
			f.stampAt = s.Offset
		}
		ga[s.Name] = s
	}
	resealFooter := func(img []byte) []byte {
		end := len(img) - snapFooterSize
		binary.LittleEndian.PutUint32(img[end+4:], crc32.ChecksumIEEE(img[:end]))
		return img
	}
	f.gaCountRaised = bytes.Clone(f.stamped)
	at := ga["ga-counts"].Offset
	binary.LittleEndian.PutUint32(f.gaCountRaised[at:], binary.LittleEndian.Uint32(f.gaCountRaised[at:])+1)
	resealFooter(f.gaCountRaised)
	g := storedGoals(f.lib)[0]
	f.gaRowEmptied = bytes.Clone(f.stamped)
	at = ga["ga-offsets"].Offset + 4*uint64(g+1)
	binary.LittleEndian.PutUint32(f.gaRowEmptied[at:], binary.LittleEndian.Uint32(f.gaRowEmptied[at-4:]))
	resealFooter(f.gaRowEmptied)

	f.vocab = NewVocabulary()
	for a := 0; a < f.lib.NumActions(); a++ {
		f.vocab.Actions.Intern(fmt.Sprintf("act-%d", a))
	}
	for g := 0; g < f.lib.NumGoals(); g++ {
		f.vocab.Goals.Intern(fmt.Sprintf("goal-%d", g))
	}
	var b bytes.Buffer
	if err := WriteSnapshot(&b, f.lib, f.vocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	named, err := DescribeSnapshot(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sec := make(map[string]SnapshotSectionInfo)
	for _, s := range named.Sections {
		sec[s.Name] = s
	}
	resealed := func(at uint64, word uint64) []byte {
		out := bytes.Clone(b.Bytes())
		binary.LittleEndian.PutUint64(out[at:], word)
		end := len(out) - snapFooterSize
		binary.LittleEndian.PutUint32(out[end+4:], crc32.ChecksumIEEE(out[:end]))
		return out
	}
	f.namePastBlob = resealed(sec["vocab-goal-offsets"].Offset+8, sec["vocab-goal-names"].Bytes+1)
	sumAt := sec["vocab-checksum"].Offset
	f.sumFlipped = resealed(sumAt+16, binary.LittleEndian.Uint64(b.Bytes()[sumAt+16:])^1)
	f.sumPastNames = resealed(sumAt, uint64(f.vocab.Actions.Len()+1))
	return f
}

// servesFlippedSum checks an open of f.sumFlipped: the open trusts the
// sealed checksum as it trusts every byte the footer covers, and
// VerifySnapshot, which recomputes it, refuses the image.
func (f *verifiedOpenFixture) servesFlippedSum(t *testing.T, snap *Snapshot) {
	t.Helper()
	nA, nG := snap.Library().NumActions(), snap.Library().NumGoals()
	if got, want := snap.Vocabulary().Checksum(nA, nG), f.vocab.Checksum(nA, nG)^1; got != want {
		t.Fatalf("checksum %#x, the image sealed %#x", got, want)
	}
	if err := VerifySnapshot(snap); err == nil || !strings.Contains(err.Error(), "sealed vocabulary checksum") {
		t.Fatalf("VerifySnapshot: %v, want the sealed checksum refused", err)
	}
}

// servesNoNamePastBlob checks an open of f.namePastBlob. The footer matches
// and the goal table is sealed, so the open walks no offset and the image
// opens; but goal names 0 and 1 are never served — Name, GoalName, Names and
// Lookup answer them as names outside the dictionary, every other goal
// serves at its id, the checksum answers without a panic — and
// VerifySnapshot refuses the image.
func (f *verifiedOpenFixture) servesNoNamePastBlob(t *testing.T, snap *Snapshot) {
	t.Helper()
	v := snap.Vocabulary()
	names := internedNames(v.Goals)
	for id := int32(0); id < 2; id++ {
		if got := v.Goals.Name(id); got != "" || names[id] != "" {
			t.Fatalf("implausible goal name %d served as %q, %q", id, got, names[id])
		}
		if got, want := v.GoalName(GoalID(id)), fmt.Sprintf("goal#%d", id); got != want {
			t.Fatalf("GoalName(%d) = %q, want %q", id, got, want)
		}
	}
	for id, name := range internedNames(f.vocab.Goals) {
		got, ok := v.Goals.Lookup(name)
		if id < 2 && ok && got < 2 {
			t.Fatalf("Lookup(%q) served implausible goal name %d", name, got)
		}
		if id >= 2 && (!ok || int(got) != id) {
			t.Fatalf("Lookup(%q) = %d, %v, want %d", name, got, ok, id)
		}
	}
	nA, nG := snap.Library().NumActions(), snap.Library().NumGoals()
	if !v.ChecksumSealed(nA, nG) || v.Checksum(nA, nG) != f.vocab.Checksum(nA, nG) {
		t.Fatalf("checksum %#x (sealed %v), the names were sealed as %#x", v.Checksum(nA, nG), v.ChecksumSealed(nA, nG), f.vocab.Checksum(nA, nG))
	}
	if v.computeChecksum(nA, nG) == f.vocab.Checksum(nA, nG) {
		t.Fatal("the moved offset left the computed checksum unchanged")
	}
	if err := VerifySnapshot(snap); err == nil || !strings.Contains(err.Error(), "implausible name 0") {
		t.Fatalf("VerifySnapshot: %v, want goal name 0 refused", err)
	}
}

// flip returns a copy of the stamped image with the byte at off flipped.
func (f *verifiedOpenFixture) flip(off uint64) []byte {
	b := bytes.Clone(f.stamped)
	b[off] ^= 1
	return b
}

// acceptSource accepts exactly the key and stamp it is given.
func acceptSource(key []byte, stamp FileStamp) func([]byte, FileStamp) error {
	return func(k []byte, s FileStamp) error {
		if !bytes.Equal(k, key) || s != stamp {
			return fmt.Errorf("accept got %q, %+v", k, s)
		}
		return nil
	}
}

type verifiedOpenCase struct {
	name   string
	file   []byte
	accept func([]byte, FileStamp) error
	reason string                      // "" when the image opens
	is     error                       // what a refusal must wrap
	check  func(*testing.T, *Snapshot) // more to hold an opened image to
	// verify, when set, is what VerifySnapshot must refuse an image that
	// opens for, its footer vouching for bytes no writer wrote; it is not
	// held to f.lib.
	verify string
}

// runVerifiedOpenCases writes each case's image to a file and opens it with
// OpenSnapshotVerified: an image that should open must map f.lib, and a
// refusal must name its reason and claim corruption only when is says so.
func runVerifiedOpenCases(t *testing.T, f *verifiedOpenFixture, cases []verifiedOpenCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "lib.gsnp")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := OpenSnapshotVerified(nil, path, tc.accept)
			if tc.reason == "" && tc.is == nil {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				defer snap.Close()
				if tc.verify != "" {
					if err := VerifySnapshot(snap); err == nil || !strings.Contains(err.Error(), tc.verify) {
						t.Fatalf("VerifySnapshot: %v, want a refusal naming %q", err, tc.verify)
					}
					return
				}
				assertLibrariesEqual(t, f.lib, snap.Library())
				if gens, n := MappedSnapshots(); gens < 1 || n < int64(len(snap.data)) {
					t.Fatalf("MappedSnapshots() = %d, %d with a %d-byte mapping open", gens, n, len(snap.data))
				}
				if tc.check != nil {
					tc.check(t, snap)
				}
				return
			}
			if err == nil {
				snap.Close()
				t.Fatal("opened")
			}
			if !strings.Contains(err.Error(), tc.reason) || tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("refusal %v, want one naming %q, errors.Is %v", err, tc.reason, tc.is)
			}
			if tc.is != ErrCorruptSnapshot && errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("refusal %v claims corruption", err)
			}
		})
	}
}

// TestOpenSnapshotKeyed: an open that demands a source key maps an image only
// when it carries that key and every byte matches its checksum footer.
func TestOpenSnapshotKeyed(t *testing.T) {
	f := newVerifiedOpenFixture(t)
	mid := uint64(len(f.stamped) / 2)
	runVerifiedOpenCases(t, f, []verifiedOpenCase{
		{name: "key matches", file: f.stamped, accept: KeyIs(f.key)},
		{name: "key differs", file: f.stamped, accept: KeyIs([]byte("source-b")), reason: `source key is "source-a"`},
		{name: "key absent", file: f.unkeyed, accept: KeyIs(f.key), reason: "no source key"},
		{name: "footer stripped", file: f.stamped[:len(f.stamped)-snapFooterSize], accept: KeyIs(f.key), is: ErrNoChecksum},
		{name: "body byte flipped", file: f.flip(mid), accept: KeyIs(f.key), reason: "checksum mismatch", is: ErrCorruptSnapshot},
		{name: "truncated", file: f.stamped[:len(f.stamped)-100], accept: KeyIs(f.key), reason: "outside file", is: ErrCorruptSnapshot},
		{name: "header byte flipped", file: f.flip(9), accept: KeyIs(f.key), reason: "header checksum mismatch", is: ErrCorruptSnapshot},
		{name: "empty", file: []byte{}, accept: KeyIs(f.key), reason: "truncated header", is: ErrCorruptSnapshot},
	})
}

// TestOpenSnapshotVerified: without accept, an image opens when every byte
// matches its checksum footer, or, with no footer, after a structural walk;
// the retired compressed-postings flag is refused either way.
func TestOpenSnapshotVerified(t *testing.T) {
	f := newVerifiedOpenFixture(t)
	runVerifiedOpenCases(t, f, []verifiedOpenCase{
		{name: "without accept", file: f.stamped},
		{name: "footer stripped, without accept", file: f.stamped[:len(f.stamped)-snapFooterSize]},
		{name: "body byte flipped, without accept", file: f.flip(uint64(len(f.stamped) / 2)), reason: "checksum mismatch", is: ErrCorruptSnapshot},
		{name: "truncated", file: f.stamped[:len(f.stamped)-100], reason: "outside file", is: ErrCorruptSnapshot},
		{name: "empty", file: []byte{}, reason: "truncated header", is: ErrCorruptSnapshot},
		{name: "compressed flag", file: f.compressed, is: ErrCompressedPostings},
		{name: "compressed flag, footer stripped", file: f.compressed[:len(f.compressed)-snapFooterSize], is: ErrCompressedPostings},
		{name: "goal offset past the blob, footer resealed", file: f.namePastBlob, check: f.servesNoNamePastBlob},
		{name: "vocabulary checksum flipped, footer resealed", file: f.sumFlipped, check: f.servesFlippedSum},
		{name: "vocabulary checksum past the names, footer resealed", file: f.sumPastNames, reason: "vocabulary checksum over", is: ErrCorruptSnapshot},
		{name: "GA count raised, footer resealed", file: f.gaCountRaised, verify: "more times than its implementations"},
		{name: "GA row of a sharing goal emptied, footer resealed", file: f.gaRowEmptied, verify: "share action"},
		{name: "GA count raised, footer stripped", file: f.gaCountRaised[:len(f.gaCountRaised)-snapFooterSize], reason: "more times than its implementations", is: ErrCorruptSnapshot},
		{name: "GA row of a sharing goal emptied, footer stripped", file: f.gaRowEmptied[:len(f.gaRowEmptied)-snapFooterSize], reason: "share action", is: ErrCorruptSnapshot},
	})
}
