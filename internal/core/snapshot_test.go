package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// snapTestLibrary builds a deterministic synthetic library with skewed action
// frequencies and long posting rows.
func snapTestLibrary(t testing.TB, nImpl, nAct int, seed int64) *Library {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(nImpl, 4)
	for i := 0; i < nImpl; i++ {
		n := 1 + rng.Intn(6)
		acts := make([]ActionID, 0, n)
		for j := 0; j < n; j++ {
			// Square the draw for a skewed (hot-head) distribution.
			f := rng.Float64()
			acts = append(acts, ActionID(f*f*float64(nAct)))
		}
		if _, err := b.Add(GoalID(i/3), acts); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	return b.Build()
}

// assertLibrariesEqual compares every accessor-visible aspect of two
// libraries.
func assertLibrariesEqual(t *testing.T, want, got *Library) {
	t.Helper()
	if want.NumImplementations() != got.NumImplementations() ||
		want.NumActions() != got.NumActions() || want.NumGoals() != got.NumGoals() {
		t.Fatalf("dimensions: want (%d,%d,%d), got (%d,%d,%d)",
			want.NumImplementations(), want.NumActions(), want.NumGoals(),
			got.NumImplementations(), got.NumActions(), got.NumGoals())
	}
	if want.MaxImplLen() != got.MaxImplLen() {
		t.Fatalf("max impl len: want %d, got %d", want.MaxImplLen(), got.MaxImplLen())
	}
	for p := 0; p < want.NumImplementations(); p++ {
		id := ImplID(p)
		if want.Goal(id) != got.Goal(id) {
			t.Fatalf("impl %d: goal %d != %d", p, got.Goal(id), want.Goal(id))
		}
		if !slicesEq(want.Actions(id), got.Actions(id)) {
			t.Fatalf("impl %d: actions %v != %v", p, got.Actions(id), want.Actions(id))
		}
	}
	for a := 0; a < want.NumActions(); a++ {
		id := ActionID(a)
		if want.ActionDegree(id) != got.ActionDegree(id) {
			t.Fatalf("action %d: degree %d != %d", a, got.ActionDegree(id), want.ActionDegree(id))
		}
		if !slicesEq(want.ImplsOfAction(id), got.ImplsOfAction(id)) {
			t.Fatalf("action %d: postings differ", a)
		}
	}
	for g := 0; g < want.NumGoals(); g++ {
		id := GoalID(g)
		if !slicesEq(want.ImplsOfGoal(id), got.ImplsOfGoal(id)) {
			t.Fatalf("goal %d: postings differ", g)
		}
		wa, wc := want.ActionsOfGoal(id)
		ga, gc := got.ActionsOfGoal(id)
		if !slicesEq(wa, ga) || !slicesEq(wc, gc) {
			t.Fatalf("goal %d: GA row differs", g)
		}
	}
}

func slicesEq[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func snapshotRoundTrip(t *testing.T, lib *Library, vocab *Vocabulary, opts SnapshotOptions) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := WriteSnapshotFile(path, lib, vocab, opts); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	snap, err := OpenSnapshotVerified(nil, path, nil)
	if err != nil {
		t.Fatalf("OpenSnapshotVerified: %v", err)
	}
	t.Cleanup(func() { snap.Close() })
	if err := VerifySnapshot(snap); err != nil {
		t.Fatalf("VerifySnapshot: %v", err)
	}
	return snap
}

func TestSnapshotRoundTripRaw(t *testing.T) {
	lib := snapTestLibrary(t, 2000, 80, 1)
	snap := snapshotRoundTrip(t, lib, nil, SnapshotOptions{})
	assertLibrariesEqual(t, lib, snap.Library())
}

func TestSnapshotRoundTripEmpty(t *testing.T) {
	lib := NewBuilder(0, 0).Build()
	snap := snapshotRoundTrip(t, lib, nil, SnapshotOptions{})
	assertLibrariesEqual(t, lib, snap.Library())
}

func TestSnapshotRoundTripVocabulary(t *testing.T) {
	lib, vocab, err := ReadJSONLines(bytes.NewReader([]byte(
		`{"goal":"dinner","actions":["buy pasta","boil water"]}
{"goal":"dinner","actions":["buy pasta","buy sauce"]}
{"goal":"party","actions":["buy sauce","invite friends"]}
`)))
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotRoundTrip(t, lib, vocab, SnapshotOptions{})
	assertLibrariesEqual(t, lib, snap.Library())
	v := snap.Vocabulary()
	if v == nil {
		t.Fatal("vocabulary not round-tripped")
	}
	for i, name := range internedNames(vocab.Actions) {
		if got := v.Actions.Name(int32(i)); got != name {
			t.Fatalf("action %d: %q != %q", i, got, name)
		}
	}
	for i, name := range internedNames(vocab.Goals) {
		if got := v.Goals.Name(int32(i)); got != name {
			t.Fatalf("goal %d: %q != %q", i, got, name)
		}
	}
}

// An extended (overlay) snapshot must serialize to the same canonical flat
// form as a full rebuild over the same implementations.
func TestSnapshotOfExtendedLibrary(t *testing.T) {
	d := NewDynamicLibrary()
	d.SetCompactionThreshold(1 << 30) // force the overlay path
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(0, 0)
	for i := 0; i < 600; i++ {
		acts := []ActionID{ActionID(rng.Intn(40)), ActionID(rng.Intn(40)), ActionID(rng.Intn(40))}
		if _, err := d.Add(GoalID(i%17), acts); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Add(GoalID(i%17), acts); err != nil {
			t.Fatal(err)
		}
		if i == 100 {
			d.Snapshot() // freeze a base epoch so later adds go through overlays
		}
	}
	ext := d.Snapshot()
	if ext.ovAct.rows == 0 {
		t.Fatal("expected an extended snapshot")
	}
	flat := b.Build()
	snap := snapshotRoundTrip(t, ext, nil, SnapshotOptions{})
	assertLibrariesEqual(t, flat, snap.Library())
}

// A library loaded from a snapshot must serialize again (the compaction path)
// without loss.
func TestSnapshotRewriteFromMapped(t *testing.T) {
	lib := snapTestLibrary(t, 1500, 60, 3)
	snap := snapshotRoundTrip(t, lib, nil, SnapshotOptions{})
	again := snapshotRoundTrip(t, snap.Library(), nil, SnapshotOptions{})
	assertLibrariesEqual(t, lib, again.Library())
}

// resealCompressedFlag sets the retired compressed-postings header flag on a
// snapshot image and reseals the header CRC and, when present, the footer,
// as that encoding's writer would have.
func resealCompressedFlag(t *testing.T, data []byte, footer bool) {
	t.Helper()
	binary.LittleEndian.PutUint32(data[8:], binary.LittleEndian.Uint32(data[8:])|snapFlagCompressed)
	tableEnd := snapHeaderSize + snapSectSize*int(binary.LittleEndian.Uint32(data[12:]))
	crc := crc32.Update(crc32.ChecksumIEEE(data[:60]), crc32.IEEETable, data[snapHeaderSize:tableEnd])
	binary.LittleEndian.PutUint32(data[60:], crc)
	if footer {
		end := len(data) - snapFooterSize
		binary.LittleEndian.PutUint32(data[end+4:], crc32.ChecksumIEEE(data[:end]))
	}
}

// A snapshot carrying the retired compressed-postings flag opens, describes
// and scrubs to ErrCompressedPostings — never to a corruption verdict, which
// would have a store quarantine a sound file.
func TestOpenSnapshotRefusesCompressedFlag(t *testing.T) {
	lib := snapTestLibrary(t, 300, 30, 2)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	resealCompressedFlag(t, data, true)
	if _, err := OpenSnapshotBytes(data); !errors.Is(err, ErrCompressedPostings) {
		t.Fatalf("OpenSnapshotBytes: %v, want ErrCompressedPostings", err)
	}
	if _, err := DescribeSnapshot(data); !errors.Is(err, ErrCompressedPostings) {
		t.Fatalf("DescribeSnapshot: %v, want ErrCompressedPostings", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "c.gsnp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotVerified(nil, path, nil); !errors.Is(err, ErrCompressedPostings) {
		t.Fatalf("OpenSnapshotVerified: %v, want ErrCompressedPostings", err)
	}
	if err := ScrubSnapshotFile(nil, path); err != nil {
		t.Fatalf("scrub of a sealed compressed snapshot: %v, want nil (the bytes are sound)", err)
	}
	// A footerless image is verified structurally, which opens it: the refusal
	// must come back as itself, not as corruption.
	legacy := filepath.Join(dir, "legacy.gsnp")
	if err := os.WriteFile(legacy, data[:len(data)-snapFooterSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScrubSnapshotFile(nil, legacy); !errors.Is(err, ErrCompressedPostings) || errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("scrub of a footerless compressed snapshot: %v, want bare ErrCompressedPostings", err)
	}
}

// Corruption anywhere in the header or table must fail cleanly.
func TestOpenSnapshotCorrupt(t *testing.T) {
	lib := snapTestLibrary(t, 300, 30, 9)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()

	open := func(data []byte) error {
		_, err := OpenSnapshotBytes(data)
		return err
	}
	if err := open(orig); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	mut := func(mutate func(d []byte)) []byte {
		d := append([]byte(nil), orig...)
		mutate(d)
		return d
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": orig[:32],
		"bad magic":    mut(func(d []byte) { d[0] ^= 0xff }),
		"bad version":  mut(func(d []byte) { binary.LittleEndian.PutUint32(d[4:], 99) }),
		"flipped flag": mut(func(d []byte) { d[8] ^= 0x01 }),
		"crc mismatch": mut(func(d []byte) { d[16] ^= 0x01 }),
		"table bit":    mut(func(d []byte) { d[snapHeaderSize+8] ^= 0x01 }),
		"truncated":    orig[:len(orig)/2],
		"sect count":   mut(func(d []byte) { binary.LittleEndian.PutUint32(d[12:], 1000) }),
	}
	for name, data := range cases {
		if err := open(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

// Flipping a bit inside a section body is not caught by the O(1) open (by
// design), but must be caught by VerifySnapshot.
func TestVerifySnapshotCatchesBodyCorruption(t *testing.T) {
	lib := snapTestLibrary(t, 300, 30, 10)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a bit in the middle of the actPost section body.
	secs, _, err := snapshotSections(data, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := secs[secActPost]
	if !ok {
		t.Fatal("no actPost section in raw snapshot")
	}
	data[s.off+s.count*uint64(s.elem)/2] ^= 0x40
	snap, err := OpenSnapshotBytes(data)
	if err != nil {
		return // corruption happened to hit a spot-checked invariant: fine
	}
	if err := VerifySnapshot(snap); err == nil {
		t.Error("VerifySnapshot accepted a corrupted section body")
	}
}

func TestWriteSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	lib := snapTestLibrary(t, 100, 10, 11)
	path := filepath.Join(dir, "a.gsnp")
	if err := WriteSnapshotFile(path, lib, nil, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "a.gsnp" {
		t.Fatalf("directory not clean after write: %v", ents)
	}
}
