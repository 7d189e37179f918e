package core

import (
	"bytes"
	"fmt"
	"slices"
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

// checkAgainstHeap holds a frozen Interner to the map-only one over the same
// base list: the list is refused by both or yields identical ids, every
// probe name looks up and interns identically on the two, ids staying dense,
// and every prefix of the dictionary checksums alike, opened and grown.
func checkAgainstHeap(t *testing.T, base, probes []string) {
	t.Helper()
	heap := NewInterner(0)
	for _, s := range base {
		heap.Intern(s)
	}
	off, blob := packList(base)
	frozen, err := newFrozenInterner(off, blob, snapMaxName)
	if dup := heap.Len() != len(base); dup || err != nil {
		if !dup || err == nil {
			t.Fatalf("base %q: duplicates %v but frozen open said %v", base, dup, err)
		}
		return
	}
	same := func(stage string) {
		t.Helper()
		if frozen.Len() != heap.Len() {
			t.Fatalf("%s: Len %d != %d", stage, frozen.Len(), heap.Len())
		}
		if got, want := frozen.Names(), heap.Names(); !slices.Equal(got, want) {
			t.Fatalf("%s: Names %q != %q", stage, got, want)
		}
		for id := int32(-1); id <= int32(heap.Len()); id++ {
			if got, want := frozen.Name(id), heap.Name(id); got != want {
				t.Fatalf("%s: Name(%d) = %q, want %q", stage, id, got, want)
			}
		}
		fo, fb := frozen.pack()
		ho, hb := heap.pack()
		if !slices.Equal(fo, ho) || !bytes.Equal(fb, hb) {
			t.Fatalf("%s: packed sections differ", stage)
		}
		for n := 0; n <= heap.Len(); n++ {
			var fc, hc vocabCRC
			fc.add(frozen, n)
			hc.add(heap, n)
			if fc.sum() != hc.sum() {
				t.Fatalf("%s: checksums of the first %d names differ: %#x != %#x", stage, n, fc.sum(), hc.sum())
			}
		}
	}
	same("opened")
	for _, s := range slices.Concat(base, probes) {
		fid, fok := frozen.Lookup(s)
		hid, hok := heap.Lookup(s)
		if fid != hid || fok != hok {
			t.Fatalf("Lookup(%q) = (%d, %v), want (%d, %v)", s, fid, fok, hid, hok)
		}
	}
	for _, s := range slices.Concat(probes, base, probes) {
		if fid, hid := frozen.Intern(s), heap.Intern(s); fid != hid {
			t.Fatalf("Intern(%q) = %d, want %d", s, fid, hid)
		}
	}
	same("grown")
	if st := frozen.Stats(); st.BaseNames != len(base) || st.GrownNames != frozen.Len()-len(base) {
		t.Fatalf("stats %+v for %d base names of %d", st, len(base), frozen.Len())
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
		t.Run(tc.name, func(t *testing.T) { checkAgainstHeap(t, tc.base, tc.probes) })
	}
}

func TestFrozenInternerRejectsBadSections(t *testing.T) {
	for name, tc := range map[string]struct {
		off  []uint64
		blob string
	}{
		"no offsets":       {nil, ""},
		"nonzero start":    {[]uint64{1, 2}, "ab"},
		"short of blob":    {[]uint64{0, 1}, "ab"},
		"past blob":        {[]uint64{0, 3}, "ab"},
		"decreasing":       {[]uint64{0, 2, 1, 2}, "ab"},
		"past blob inside": {[]uint64{0, 9, 2}, "ab"},
		"name too long":    {[]uint64{0, 5}, "abcde"},
	} {
		if _, err := newFrozenInterner(tc.off, []byte(tc.blob), 4); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFrozenInternerConcurrent: base lookups take no lock and growth takes
// the write lock, so any mix of the two is safe and ids stay dense and
// agreed on (run under -race).
func TestFrozenInternerConcurrent(t *testing.T) {
	base := make([]string, 500)
	for i := range base {
		base[i] = fmt.Sprintf("base-%d", i)
	}
	off, blob := packList(base)
	in, err := newFrozenInterner(off, blob, snapMaxName)
	if err != nil {
		t.Fatal(err)
	}
	const workers, fresh = 8, 200
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
				if got := in.Name(ids[w][i]); got != fmt.Sprintf("grown-%d", i) {
					t.Errorf("Name(%d) = %q", ids[w][i], got)
					return
				}
				_ = in.Names()
			}
		}(w)
	}
	wg.Wait()
	if in.Len() != len(base)+fresh {
		t.Fatalf("Len = %d, want %d", in.Len(), len(base)+fresh)
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

// FuzzFrozenInterner is checkAgainstHeap over arbitrary name lists: data is
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
		checkAgainstHeap(t, names[:len(names)/2], names[len(names)/2:])
	})
}
