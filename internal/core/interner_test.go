package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// packList lays a name list out as a snapshot's vocabulary sections do —
// duplicates included, which Interner.pack can never produce.
func packList(names []string) ([]uint64, []byte) {
	off := []uint64{0}
	var blob []byte
	for _, s := range names {
		blob = append(blob, s...)
		off = append(off, uint64(len(blob)))
	}
	return off, blob
}

// nameOracle is the obvious dictionary: a map from name to id and the names
// in id order, ids handed out densely in order of first use.
type nameOracle struct {
	ids   map[string]int32
	names []string
}

// newNameOracle interns names, in order, into a fresh oracle.
func newNameOracle(names []string) *nameOracle {
	o := &nameOracle{ids: make(map[string]int32)}
	for _, s := range names {
		o.intern(s)
	}
	return o
}

func (o *nameOracle) intern(s string) int32 {
	if id, ok := o.ids[s]; ok {
		return id
	}
	o.ids[s] = int32(len(o.names))
	o.names = append(o.names, s)
	return o.ids[s]
}

func (o *nameOracle) lookup(s string) (int32, bool) {
	id, ok := o.ids[s]
	return id, ok
}

func (o *nameOracle) name(id int32) string {
	if id < 0 || int(id) >= len(o.names) {
		return ""
	}
	return o.names[id]
}

// internedNames lists in's names in id order, read through Name.
func internedNames(in *Interner) []string {
	names := make([]string, in.Len())
	for id := range names {
		names[id] = in.Name(int32(id))
	}
	return names
}

// checkAgainstOracle holds the Interners over a base list — one whose
// names were interned on the heap, a frozen one whose name table is built at
// open and one whose table was sealed into a written image and read back —
// to the map oracle over the same list: the list is refused by both opens
// exactly when it holds a duplicate, the two frozen tables are equal, the
// checksum the image sealed is the one computed from the oracle's names, and
// for each Interner every probe name looks up and interns as in the oracle,
// ids staying dense, and every prefix of the dictionary checksums alike,
// opened and grown.
func checkAgainstOracle(t *testing.T, base, probes []string) {
	t.Helper()
	off, blob := packList(base)
	frozen, err := newFrozenInterner(off, blob, nil)
	if dup := len(newNameOracle(base).names) != len(base); dup || err != nil {
		if !dup || err == nil {
			t.Fatalf("base %q: duplicates %v but frozen open said %v", base, dup, err)
		}
		if _, err := buildNameTable(off, blob); err == nil {
			t.Fatalf("base %q: a table was built over duplicates", base)
		}
		return
	}
	vocab := sealNames(t, heapInterner(base))
	sealed := vocab.Actions
	nGoals := vocab.Goals.Len()
	if !vocab.ChecksumSealed(len(base), nGoals) {
		t.Fatalf("base %q: the image carries no checksum over its %d names", base, len(base))
	}
	var c vocabCRC
	c.addPacked(off, blob, len(base))
	goals := vocab.Goals.pack(false)
	c.addPacked(goals.off, goals.blob, nGoals)
	if got, want := vocab.Checksum(len(base), nGoals), c.sum(); got != want {
		t.Fatalf("base %q: sealed checksum %#x, the oracle's %#x", base, got, want)
	}
	if got, want := vocab.computeChecksum(len(base), nGoals), vocab.sealed.sum; got != want {
		t.Fatalf("base %q: the opened names checksum to %#x, the image sealed %#x", base, got, want)
	}
	if !sealed.Stats().Sealed || frozen.Stats().Sealed || !slices.Equal(sealed.base.tab, frozen.base.tab) {
		t.Fatalf("base %q: sealed table %v (sealed %v), built %v", base, sealed.base.tab, sealed.Stats().Sealed, frozen.base.tab)
	}
	checkInterner(t, heapInterner(base), 0, base, probes)
	checkInterner(t, frozen, len(base), base, probes)
	checkInterner(t, sealed, len(base), base, probes)
}

// heapInterner interns names, in order, into an Interner with no base.
func heapInterner(names []string) *Interner {
	in := NewInterner(0)
	for _, s := range names {
		in.Intern(s)
	}
	return in
}

// sealNames writes an image whose action dictionary is in, and whose
// library's action id space is exactly in's names, and opens it again: the
// returned vocabulary serves in's names through the sealed table, and its
// sealed checksum covers all of them.
func sealNames(t testing.TB, in *Interner) *Vocabulary {
	t.Helper()
	b := NewBuilder(1, 1)
	goals := NewInterner(0)
	if n := in.Len(); n > 0 {
		goals.Intern("g")
		if _, err := b.Add(0, []ActionID{ActionID(n - 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, b.Build(), &Vocabulary{Actions: in, Goals: goals}, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return snap.Vocabulary()
}

// checkInterner is checkAgainstOracle for one Interner over base, baseNames
// of whose names lie in its base. Each stage packs both sides once and
// compares the checksums of every prefix of the packed forms.
func checkInterner(t *testing.T, in *Interner, baseNames int, base, probes []string) {
	t.Helper()
	oracle := newNameOracle(base)
	same := func(stage string) {
		t.Helper()
		if in.Len() != len(oracle.names) {
			t.Fatalf("%s: Len %d != %d", stage, in.Len(), len(oracle.names))
		}
		for id := int32(-1); id <= int32(len(oracle.names)); id++ {
			if got, want := in.Name(id), oracle.name(id); got != want {
				t.Fatalf("%s: Name(%d) = %q, want %q", stage, id, got, want)
			}
		}
		packed := in.pack(false)
		ino, inb := packed.off, packed.blob
		oo, ob := packList(oracle.names)
		if !slices.Equal(ino, oo) || !bytes.Equal(inb, ob) {
			t.Fatalf("%s: packed sections differ", stage)
		}
		for n := 0; n <= len(oracle.names); n++ {
			var ic, oc vocabCRC
			ic.addPacked(ino, inb, n)
			oc.addPacked(oo, ob, n)
			if ic.sum() != oc.sum() {
				t.Fatalf("%s: checksums of the first %d names differ: %#x != %#x", stage, n, ic.sum(), oc.sum())
			}
		}
	}
	same("opened")
	for _, s := range slices.Concat(base, probes) {
		id, ok := in.Lookup(s)
		oid, ook := oracle.lookup(s)
		if id != oid || ok != ook {
			t.Fatalf("Lookup(%q) = (%d, %v), want (%d, %v)", s, id, ok, oid, ook)
		}
	}
	for _, s := range slices.Concat(probes, base, probes) {
		if id, oid := in.Intern(s), oracle.intern(s); id != oid {
			t.Fatalf("Intern(%q) = %d, want %d", s, id, oid)
		}
	}
	same("grown")
	if st := in.Stats(); st.BaseNames != baseNames || st.GrownNames != in.Len()-baseNames {
		t.Fatalf("stats %+v for %d base names of %d", st, baseNames, in.Len())
	}
}

// TestFrozenInterner is the table for the snapshot-backed vocabulary.
func TestFrozenInterner(t *testing.T) {
	many := make([]string, 3000)
	for i := range many {
		many[i] = fmt.Sprintf("name-%d", i*7)
	}
	for _, tc := range []struct {
		name         string
		base, probes []string
	}{
		{"empty base", nil, []string{"a", "", "a"}},
		{"empty name first", []string{"", "a"}, []string{"b", ""}},
		{"empty name last", []string{"a", ""}, []string{""}},
		{"prefixes", []string{"ab", "a", "abc", "b", "bc"}, []string{"", "abcd", "c", "ab"}},
		{"shared bytes", []string{"aa", "a", "aaa"}, []string{"aaaa"}},
		{"duplicate", []string{"a", "b", "a"}, nil},
		{"duplicate empty", []string{"", "x", ""}, nil},
		{"non-ASCII", []string{"naïve", "na", "ï", "\x00", "\x00\x00"}, []string{"\xff", "naïv"}},
		{"many", many, []string{"name-1", "name-7", "other"}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkAgainstOracle(t, tc.base, tc.probes) })
	}
}

// TestFrozenInternerRejectsBadSections: offsets that delimit no sound
// dictionary are refused at open when the table is built there, which walks
// every name. With a sealed table the open checks only the ends; whatever
// else is wrong opens, but the implausible name is never served — no
// lookup finds it, Name answers it as an id outside the dictionary, nothing
// slices out of bounds — and VerifySnapshot refuses the image.
func TestFrozenInternerRejectsBadSections(t *testing.T) {
	long := strings.Repeat("a", snapMaxName+1)
	for name, tc := range map[string]struct {
		off  []uint64
		blob string
		bad  []int32 // the implausible names of a sealed open; nil when it refuses
	}{
		"no offsets":       {nil, "", nil},
		"nonzero start":    {[]uint64{1, 2}, "ab", nil},
		"short of blob":    {[]uint64{0, 1}, "ab", nil},
		"past blob":        {[]uint64{0, 3}, "ab", nil},
		"decreasing":       {[]uint64{0, 2, 1, 2}, "ab", []int32{1}},
		"past blob inside": {[]uint64{0, 9, 2}, "ab", []int32{0, 1}},
		"name too long":    {[]uint64{0, snapMaxName + 1}, long, []int32{0}},
	} {
		if _, err := newFrozenInterner(tc.off, []byte(tc.blob), nil); err == nil {
			t.Errorf("%s: accepted without a table", name)
		}
		n := max(len(tc.off)-1, 0)
		tab := make([]int32, tableSize(n))
		for id := range n {
			tab[id] = int32(id + 1) // each id in a slot, no slot read out of bounds
		}
		in, err := newFrozenInterner(tc.off, []byte(tc.blob), tab)
		if tc.bad == nil {
			if err == nil {
				t.Errorf("%s: accepted with a sealed table", name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: refused with a sealed table: %v", name, err)
			continue
		}
		names := internedNames(in)
		for _, id := range tc.bad {
			if got := in.Name(id); got != "" || names[id] != "" {
				t.Errorf("%s: implausible name %d served as %q, %q", name, id, got, names[id])
			}
		}
		for _, probe := range []string{"", "a", "b", "ab", long, tc.blob} {
			if id, ok := in.Lookup(probe); ok && slices.Contains(tc.bad, id) {
				t.Errorf("%s: Lookup(%q) found implausible name %d", name, probe, id)
			}
		}
		var c vocabCRC
		packed := in.pack(false)
		for k := 0; k <= n; k++ {
			c.addPacked(packed.off, packed.blob, k) // every prefix hashes in bounds
		}
		snap := &Snapshot{lib: NewBuilder(0, 0).Build(), vocab: &Vocabulary{Actions: in, Goals: NewInterner(0)}}
		if err := VerifySnapshot(snap); err == nil || !strings.Contains(err.Error(), "implausible name") {
			t.Errorf("%s: VerifySnapshot said %v, want an implausible name", name, err)
		}
	}
}

// TestFrozenInternerConcurrent: base lookups take no lock and growth takes
// the write lock, so any mix of the two is safe and ids stay dense and
// agreed on (run under -race). The fresh names make the tail's table double
// at least 8 times while every worker keeps looking up and naming grown ids.
func TestFrozenInternerConcurrent(t *testing.T) {
	base := make([]string, 500)
	for i := range base {
		base[i] = fmt.Sprintf("base-%d", i)
	}
	off, blob := packList(base)
	in, err := newFrozenInterner(off, blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, fresh = 8, 2000
	ids := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]int32, fresh)
			for i := 0; i < fresh; i++ {
				ids[w][i] = in.Intern(fmt.Sprintf("grown-%d", i))
				b := (i*31 + w) % len(base)
				if id, ok := in.Lookup(base[b]); !ok || int(id) != b || in.Intern(base[b]) != id {
					t.Errorf("base name %d resolved to %d, %v", b, id, ok)
					return
				}
				for _, j := range []int{i, i / 2} {
					name := fmt.Sprintf("grown-%d", j)
					if id, ok := in.Lookup(name); !ok || id != ids[w][j] {
						t.Errorf("Lookup(%q) = %d, %v, want %d", name, id, ok, ids[w][j])
						return
					}
					if got := in.Name(ids[w][j]); got != name {
						t.Errorf("Name(%d) = %q, want %q", ids[w][j], got, name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if in.Len() != len(base)+fresh {
		t.Fatalf("Len = %d, want %d", in.Len(), len(base)+fresh)
	}
	if got := len(in.tail.tab); got < 8<<8 {
		t.Fatalf("the tail's table has %d slots: it doubled fewer than 8 times", got)
	}
	for w := 1; w < workers; w++ {
		if !slices.Equal(ids[w], ids[0]) {
			t.Fatalf("worker %d was handed different ids", w)
		}
	}
	sorted := slices.Clone(ids[0])
	slices.Sort(sorted)
	for i, id := range sorted {
		if int(id) != len(base)+i {
			t.Fatalf("grown ids are not dense from %d: %v", len(base), sorted[:i+1])
		}
	}
}

// FuzzFrozenInterner is checkAgainstOracle over arbitrary name lists: data is
// cut at newlines into names, the first half the base, the rest the probes.
func FuzzFrozenInterner(f *testing.F) {
	f.Add([]byte("a\nb\nc\nd"))
	f.Add([]byte("a\na\nb\nb"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("ab\na\nabc\n\nabcd\nab"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var names []string
		for _, b := range bytes.Split(data, []byte("\n")) {
			names = append(names, string(b))
		}
		checkAgainstOracle(t, names[:len(names)/2], names[len(names)/2:])
	})
}

// TestSealedNameTableBounds: a sealed table of the wrong length is refused
// at open as corrupt; one of the right length whose slots no sealer wrote —
// ids out of range, no empty slot — answers every lookup with a miss or a
// true hit, in bounds and in at most one pass; and VerifySnapshot tells a
// table that is not its names' layout from the sealed one.
func TestSealedNameTableBounds(t *testing.T) {
	base := []string{"a", "b", "c"}
	off, blob := packList(base)
	if _, err := newFrozenInterner(off, blob, make([]int32, 2*tableSize(len(base)))); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("a table twice too long: %v, want ErrCorruptSnapshot", err)
	}
	garbage := []int32{-1, math.MinInt32, math.MaxInt32, 4, 5, -7, 99, 1 << 20}
	in, err := newFrozenInterner(off, blob, garbage)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"a", "b", "c", "", "d"} {
		if id, ok := in.Lookup(s); ok {
			t.Fatalf("Lookup(%q) = %d through a table holding no valid id", s, id)
		}
	}
	if id := in.Intern("a"); id != int32(len(base)) {
		t.Fatalf("Intern(a) = %d past an unusable table, want the next id %d", id, len(base))
	}

	var buf bytes.Buffer
	vocab := &Vocabulary{Actions: heapInterner(base), Goals: NewInterner(0)}
	if err := WriteSnapshot(&buf, NewBuilder(0, 0).Build(), vocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	snap, err := OpenSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshot(snap); err != nil {
		t.Fatalf("VerifySnapshot of a sealed image: %v", err)
	}
	tab := snap.Vocabulary().Actions.base.tab
	full := slices.IndexFunc(tab, func(v int32) bool { return v != 0 })
	empty := slices.Index(tab, 0)
	tab[full], tab[empty] = tab[empty], tab[full] // one name moved off its probe path
	if err := VerifySnapshot(snap); err == nil {
		t.Fatal("VerifySnapshot passed a table with a name off its probe path")
	}
}

// TestOpenSealedNamesAllocatesNothingPerName: opening a sealed dictionary of
// the bench shape's 125 000 goal names builds no table — a few small
// headers, not the 1 MB a build at open allocates.
func TestOpenSealedNamesAllocatesNothingPerName(t *testing.T) {
	names := make([]string, 125_000)
	for i := range names {
		names[i] = "g" + strconv.Itoa(i)
	}
	var buf bytes.Buffer
	vocab := &Vocabulary{Actions: NewInterner(0), Goals: heapInterner(names)}
	if err := WriteSnapshot(&buf, NewBuilder(0, 0).Build(), vocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	secs, _, err := snapshotSections(data, uint64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		in, err := openNames(secs, data, secVocGoalOff, secVocGoalStr, secVocGoalTab)
		if err != nil || !in.baseSealed {
			t.Fatalf("openNames: sealed %v, %v", in != nil && in.baseSealed, err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per >= 1<<10 {
		t.Fatalf("opening %d sealed names allocated %d bytes, want < 1 KiB", len(names), per)
	}
	in, _ := openNames(secs, data, secVocGoalOff, secVocGoalStr, secVocGoalTab)
	for i, s := range names {
		if id, ok := in.Lookup(s); !ok || int(id) != i {
			t.Fatalf("Lookup(%q) = %d, %v through the sealed table", s, id, ok)
		}
	}
}

// TestSealTable pins the rules seal keeps for every way a dictionary grows:
// the table it hands over is the one buildNameTable lays out for the packed
// names — the tail's own across the 8-slot boundary and many doublings, a
// sealed base's, and one built where a base and a grown tail merge — and a
// name longer than snapMaxName, which the heap serves, is refused by
// WriteSnapshot whichever segment holds it.
func TestSealTable(t *testing.T) {
	seq := func(prefix string, n int) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = prefix + strconv.Itoa(i)
		}
		return names
	}
	for _, tc := range []struct {
		name        string
		base, grown []string
	}{
		{"empty", nil, nil},
		{"5 names", nil, seq("n", 5)},
		{"6 names", nil, seq("n", 6)},
		{"7 names", nil, seq("n", 7)},
		{"3000 names", nil, seq("n", 3000)},
		{"sealed base", seq("b", 7), nil},
		{"sealed base plus growth", seq("b", 7), seq("n", 40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := heapInterner(tc.base)
			if tc.base != nil {
				in = sealNames(t, in).Actions
			}
			for _, s := range tc.grown {
				in.Intern(s)
			}
			sealed, err := in.seal()
			off, blob, tab := sealed.off, sealed.blob, sealed.tab
			if err != nil {
				t.Fatal(err)
			}
			packed := in.pack(false)
			want, err := buildNameTable(packed.off, packed.blob)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tab, want) {
				t.Fatalf("seal's table is not buildNameTable's over %d names", len(off)-1)
			}
			if !slices.Equal(internedNames(in), slices.Concat(tc.base, tc.grown)) || len(blob) != int(off[len(off)-1]) {
				t.Fatalf("sealed names %q", internedNames(in))
			}
		})
	}

	long := strings.Repeat("x", snapMaxName+1)
	for name, in := range map[string]*Interner{
		"heap":               heapInterner([]string{"a", strings.Repeat("y", snapMaxName), long, "b"}),
		"sealed base, grown": sealNames(t, heapInterner([]string{"a", "b"})).Actions,
	} {
		id := in.Intern(long)
		if got, ok := in.Lookup(long); !ok || got != id || in.Intern(long) != id || in.Name(id) != long {
			t.Fatalf("%s: the long name interned as %d, looked up as %d, %v", name, id, got, ok)
		}
		err := WriteSnapshot(io.Discard, NewBuilder(0, 0).Build(), &Vocabulary{Actions: in, Goals: NewInterner(0)}, SnapshotOptions{})
		if err == nil || !strings.Contains(err.Error(), "implausible name") {
			t.Fatalf("%s: WriteSnapshot of a %d-byte name said %v", name, len(long), err)
		}
	}
}
