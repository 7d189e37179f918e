package goalrec

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/faultfs"
)

// writeSidecarSource writes a seeded JSON-lines library, large enough for its
// hot posting rows to span several blocks, to path.
func writeSidecarSource(t testing.TB, path string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&sb, `{"goal":"goal-%03d","actions":[`, rng.Intn(300))
		for j, n := 0, 2+rng.Intn(5); j < n; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			f := rng.Float64()
			fmt.Fprintf(&sb, `"act-%03d"`, int(f*f*200))
		}
		sb.WriteString("]}\n")
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// parseReference is the heap path the sidecar stands in for: LoadLibraryFile
// of the current source, re-laid-out if asked.
func parseReference(t testing.TB, path string, impact bool) *Library {
	t.Helper()
	lib, err := LoadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if impact {
		lib = lib.ImpactOrdered()
	}
	return lib
}

// canonicalImage serializes lib in the snapshot format, which reads every
// index row and every name through the accessors: two libraries with equal
// images are structurally identical, whatever backs them.
func canonicalImage(t testing.TB, lib *Library) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, lib.lib, lib.vocab, core.SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replaceFile puts data at path the way every snapshot writer does, by
// rename: libraries loaded earlier still map the previous inode, and
// rewriting that in place would pull their pages from under them.
func replaceFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path+".new", data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".new", path); err != nil {
		t.Fatal(err)
	}
}

var sidecarActivities = [][]string{
	{"act-000"},
	{"act-001", "act-004", "act-017"},
	{"act-002", "act-030", "act-090", "act-150", "no-such-action"},
}

// assertServesLike fails unless got is structurally identical to want and
// every strategy ranks byte-equally on both at k ∈ {1, 10, all}.
func assertServesLike(t testing.TB, want, got *Library) {
	t.Helper()
	if !bytes.Equal(canonicalImage(t, want), canonicalImage(t, got)) {
		t.Fatal("library differs structurally from the parse of its source")
	}
	for _, s := range Strategies() {
		wr, gr := want.MustRecommender(s), got.MustRecommender(s)
		for _, activity := range sidecarActivities {
			for _, k := range []int{1, 10, -1} {
				if w, g := wr.Recommend(activity, k), gr.Recommend(activity, k); !reflect.DeepEqual(w, g) {
					t.Fatalf("%s k=%d %v: ranking %v, want %v", s, k, activity, g, w)
				}
			}
		}
	}
}

// TestSidecarTable drives LoadLibraryFileMapped through every state a sidecar
// can be found in, in both layouts, against the parse of the current source.
func TestSidecarTable(t *testing.T) {
	mutateSidecar := func(f func(b []byte) []byte) func(*testing.T, string, bool) {
		return func(t *testing.T, src string, _ bool) {
			b, err := os.ReadFile(src + SidecarSuffix)
			if err != nil {
				t.Fatal(err)
			}
			replaceFile(t, src+SidecarSuffix, f(b))
		}
	}
	for _, st := range []struct {
		name string
		warm bool // the sidecar exists, built from the source as first written
		// disturb runs between the warm-up and the load under test.
		disturb func(t *testing.T, src string, impact bool)
		want    string // prefix of the expected decision
	}{
		{name: "cold", want: "rebuilt: no sidecar"},
		{name: "warm", warm: true, want: SidecarHit},
		{name: "source appended to", warm: true, want: "rebuilt: source key is",
			disturb: func(t *testing.T, src string, _ bool) {
				f, err := os.OpenFile(src, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteString(`{"goal":"goal-new","actions":["act-000","act-new"]}` + "\n"); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "source edited at equal size, mtime restored", warm: true, want: "rebuilt: source key is",
			disturb: func(t *testing.T, src string, _ bool) {
				fi, err := os.Stat(src)
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(src)
				if err != nil {
					t.Fatal(err)
				}
				edited := bytes.Replace(b, []byte(`"act-001"`), []byte(`"act-199"`), 1)
				if len(edited) != len(b) || bytes.Equal(edited, b) {
					t.Fatal("the edit must change the bytes and keep the size")
				}
				if err := os.WriteFile(src, edited, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(src, fi.ModTime(), fi.ModTime()); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "sidecar truncated", warm: true, want: "rebuilt: ",
			disturb: mutateSidecar(func(b []byte) []byte { return b[:len(b)-len(b)/3] })},
		{name: "sidecar without its footer", warm: true, want: "rebuilt: ",
			disturb: mutateSidecar(func(b []byte) []byte { return b[:len(b)-8] })},
		{name: "one byte flipped inside a section", warm: true, want: "rebuilt: core: snapshot corrupt: checksum mismatch",
			disturb: mutateSidecar(func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })},
		{name: "header garbage", warm: true, want: "rebuilt: ",
			disturb: mutateSidecar(func(b []byte) []byte {
				copy(b, "not a snapshot header at all, just sixty-four bytes of something")
				return b
			})},
		{name: "sidecar from the other layout", want: "rebuilt: source key is",
			disturb: func(t *testing.T, src string, impact bool) {
				if _, _, err := LoadLibraryFileMapped(src, !impact); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		for _, impact := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/impact=%v", st.name, impact), func(t *testing.T) {
				src := filepath.Join(t.TempDir(), "lib.jsonl")
				writeSidecarSource(t, src, 21)
				if st.warm {
					if _, d, err := LoadLibraryFileMapped(src, impact); err != nil || !strings.HasPrefix(d, SidecarRebuilt) {
						t.Fatalf("warm-up: decision %q, err %v", d, err)
					}
				}
				if st.disturb != nil {
					st.disturb(t, src, impact)
				}
				lib, decision, err := LoadLibraryFileMapped(src, impact)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(decision, st.want) {
					t.Fatalf("decision %q, want %q…", decision, st.want)
				}
				if got := lib.Backing(); got.Backing != "mapped" || got.Sidecar != decision {
					t.Fatalf("Backing() = %+v after decision %q", got, decision)
				}
				assertServesLike(t, parseReference(t, src, impact), lib)
				// Whatever was found, the next start parses nothing.
				again, decision, err := LoadLibraryFileMapped(src, impact)
				if err != nil || decision != SidecarHit {
					t.Fatalf("second load: decision %q, err %v; want a hit", decision, err)
				}
				assertServesLike(t, lib, again)
			})
		}
	}
}

// TestSidecarUnwritable: when the sidecar cannot be written the parsed, heap
// library is served, as before sidecars existed, and the cause is reported.
func TestSidecarUnwritable(t *testing.T) {
	for _, impact := range []bool{false, true} {
		src := filepath.Join(t.TempDir(), "lib.jsonl")
		writeSidecarSource(t, src, 22)
		for _, rule := range []faultfs.Rule{
			{Op: faultfs.OpCreateTemp, Err: syscall.EROFS},
			{Op: faultfs.OpWrite, Err: faultfs.ENOSPC},
			{Op: faultfs.OpRename, Err: faultfs.EIO},
		} {
			inj := faultfs.NewInjector(nil)
			inj.Fail(rule)
			lib, decision, err := loadLibraryFileMapped(inj, src, impact)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(decision, SidecarUnwritable+": ") {
				t.Fatalf("op %v: decision %q, want unwritable", rule.Op, decision)
			}
			if lib.Backing().Backing != "heap" {
				t.Fatalf("op %v: an unwritable sidecar left the library %q", rule.Op, lib.Backing().Backing)
			}
			assertServesLike(t, parseReference(t, src, impact), lib)
			if _, err := os.Stat(src + SidecarSuffix); err == nil {
				t.Fatalf("op %v: a sidecar appeared despite the fault", rule.Op)
			}
		}
	}
}

// TestSidecarConcurrentColdStarts: eight loads racing on one cold path — the
// cluster's first deployment — each write their own temp file and rename
// identical bytes; whichever file each then opens verifies.
func TestSidecarConcurrentColdStarts(t *testing.T) {
	for _, impact := range []bool{false, true} {
		src := filepath.Join(t.TempDir(), "lib.jsonl")
		writeSidecarSource(t, src, 23)
		const n = 8
		libs := make([]*Library, n)
		decisions := make([]string, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				libs[i], decisions[i], errs[i] = LoadLibraryFileMapped(src, impact)
			}(i)
		}
		wg.Wait()
		want := parseReference(t, src, impact)
		for i := range libs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if d := decisions[i]; d != SidecarHit && !strings.HasPrefix(d, SidecarRebuilt+": ") {
				t.Fatalf("load %d: decision %q", i, d)
			}
			if libs[i].Backing().Backing != "mapped" {
				t.Fatalf("load %d (%s) is not served mapped", i, decisions[i])
			}
			assertServesLike(t, want, libs[i])
		}
		leftovers, err := filepath.Glob(filepath.Join(filepath.Dir(src), ".snap-*.tmp"))
		if err != nil || len(leftovers) != 0 {
			t.Fatalf("temp files left behind: %v (%v)", leftovers, err)
		}
	}
}

// TestSidecarRemovesStaleTemps: a rebuild clears what an interrupted write
// left beside the library long ago, and leaves a fresh temp file — another
// process's write in progress — alone.
func TestSidecarRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "lib.jsonl")
	writeSidecarSource(t, src, 24)
	stale, fresh := filepath.Join(dir, ".snap-111.tmp"), filepath.Join(dir, ".snap-222.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("torn"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * sidecarTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, d, err := LoadLibraryFileMapped(src, false); err != nil || !strings.HasPrefix(d, SidecarRebuilt) {
		t.Fatalf("decision %q, err %v", d, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the rebuild (%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file was removed: %v", err)
	}
}

// TestSidecarOtherFormats: only JSON lines get a sidecar; a snapshot loads as
// LoadLibraryFile loads it.
func TestSidecarOtherFormats(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "lib.jsonl")
	writeSidecarSource(t, src, 25)
	want := parseReference(t, src, false)
	snap := filepath.Join(dir, "lib.gsnp")
	if err := want.SaveSnapshotFile(snap, false); err != nil {
		t.Fatal(err)
	}
	lib, decision, err := LoadLibraryFileMapped(snap, false)
	if err != nil || decision != "" {
		t.Fatalf("%s: decision %q, err %v", snap, decision, err)
	}
	assertServesLike(t, want, lib)
	if _, err := os.Stat(snap + SidecarSuffix); err == nil {
		t.Fatalf("%s got a sidecar", snap)
	}
	if _, _, err := LoadLibraryFileMapped(filepath.Join(dir, "missing.jsonl"), false); err == nil {
		t.Fatal("a missing library loaded")
	}
}

// TestSidecarEngineIngest: an Engine seeded from a sidecar-backed library and
// fed the same ingests as one seeded from the parse serves the same epochs.
func TestSidecarEngineIngest(t *testing.T) {
	for _, impact := range []bool{false, true} {
		src := filepath.Join(t.TempDir(), "lib.jsonl")
		writeSidecarSource(t, src, 26)
		mapped, _, err := LoadLibraryFileMapped(src, impact)
		if err != nil {
			t.Fatal(err)
		}
		onMapped := NewEngineFromLibrary(mapped)
		onHeap := NewEngineFromLibrary(parseReference(t, src, impact))
		for round := 0; round < 3; round++ {
			batch := []Implementation{
				{Goal: fmt.Sprintf("goal-%03d", round), Actions: []string{"act-000", "act-003", fmt.Sprintf("fresh-%d", round)}},
				{Goal: fmt.Sprintf("ingested-%d", round), Actions: []string{"act-001", "act-017"}},
			}
			for _, e := range []*Engine{onMapped, onHeap} {
				if _, err := e.AddImplementations(batch); err != nil {
					t.Fatal(err)
				}
			}
			if onMapped.Epoch() != onHeap.Epoch() {
				t.Fatalf("epochs diverged: %d vs %d", onMapped.Epoch(), onHeap.Epoch())
			}
			if got := onMapped.Snapshot().Backing().Backing; got != "mapped" {
				t.Fatalf("round %d: an ingest left the snapshot %q", round, got)
			}
			assertServesLike(t, onHeap.Snapshot(), onMapped.Snapshot())
		}
	}
}

// TestVocabChecksumMemoized: the checksum is a pure function of the snapshot
// — equal across the heap, mapped and re-opened forms of one artifact in one
// layout — and a later epoch that interned a name has its own.
func TestVocabChecksumMemoized(t *testing.T) {
	src := filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, 27)
	for _, impact := range []bool{false, true} {
		heap := parseReference(t, src, impact)
		rebuilt, _, err := LoadLibraryFileMapped(src, impact)
		if err != nil {
			t.Fatal(err)
		}
		hit, d, err := LoadLibraryFileMapped(src, impact)
		if err != nil || d != SidecarHit {
			t.Fatalf("decision %q, err %v", d, err)
		}
		want := heap.VocabChecksum()
		if want != heap.computeVocabChecksum() || want != heap.VocabChecksum() {
			t.Fatal("the memoized checksum differs from the computed one")
		}
		if rebuilt.VocabChecksum() != want || hit.VocabChecksum() != want {
			t.Fatalf("impact=%v: checksums %016x (heap) %016x (rebuilt) %016x (hit)",
				impact, want, rebuilt.VocabChecksum(), hit.VocabChecksum())
		}
		e := NewEngineFromLibrary(hit)
		before := e.Snapshot().VocabChecksum()
		if before != want {
			t.Fatalf("engine snapshot checksum %016x, want %016x", before, want)
		}
		if err := e.AddImplementation("goal-000", "act-000", "a-name-never-seen"); err != nil {
			t.Fatal(err)
		}
		if after := e.Snapshot().VocabChecksum(); after == before {
			t.Fatal("interning a name left the checksum unchanged")
		}
		if e.Snapshot().VocabChecksum() != e.Snapshot().computeVocabChecksum() {
			t.Fatal("the new epoch's memoized checksum is stale")
		}
	}
}

// FuzzSidecarOpen mutates a valid sidecar: the keyed open must either refuse
// it — the load then rebuilds — or serve a library identical to the parse;
// never another library, never a panic or a fault on the mapping. (It drives
// the open directly so that each mapping can be released; the rebuild that
// follows a refusal is TestSidecarTable's.)
func FuzzSidecarOpen(f *testing.F) {
	dir := f.TempDir()
	src := filepath.Join(dir, "lib.jsonl")
	writeSidecarSource(f, src, 28)
	if _, _, err := LoadLibraryFileMapped(src, false); err != nil {
		f.Fatal(err)
	}
	side := src + SidecarSuffix
	valid, err := os.ReadFile(side)
	if err != nil {
		f.Fatal(err)
	}
	d, err := core.DescribeSnapshot(valid)
	if err != nil || d.SourceKey == "" {
		f.Fatalf("sidecar source key %q, err %v", d.SourceKey, err)
	}
	key := []byte(d.SourceKey)
	want := canonicalImage(f, parseReference(f, src, false))
	f.Add(uint32(0), byte(0), uint32(0))            // untouched
	f.Add(uint32(9), byte(0xff), uint32(0))         // header flags
	f.Add(uint32(70), byte(1), uint32(0))           // section table
	f.Add(uint32(len(valid)/2), byte(4), uint32(0)) // section body
	f.Add(uint32(len(valid)-3), byte(8), uint32(0)) // footer
	f.Add(uint32(0), byte(0), uint32(100))          // truncated
	f.Fuzz(func(t *testing.T, off uint32, xor byte, cut uint32) {
		b := append([]byte(nil), valid...)
		b[int(off)%len(b)] ^= xor
		b = b[:len(b)-int(cut)%len(b)]
		replaceFile(t, side, b)
		snap, err := core.OpenSnapshotKeyed(nil, side, key)
		if err != nil {
			if bytes.Equal(b, valid) {
				t.Fatalf("the valid sidecar was refused: %v", err)
			}
			return
		}
		defer snap.Close()
		got := canonicalImage(t, &Library{lib: snap.Library(), vocab: snap.Vocabulary()})
		if !bytes.Equal(got, want) {
			t.Fatalf("a mutated sidecar was served as a different library (off %d xor %#x cut %d)", off, xor, cut)
		}
	})
}
