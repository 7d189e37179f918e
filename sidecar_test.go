package goalrec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
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

// writeSidecarSource writes a seeded JSON-lines library with long hot posting
// rows to path.
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
// of the current source.
func parseReference(t testing.TB, path string) *Library {
	t.Helper()
	lib, err := LoadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// sealedReference is parseReference stamped at the epoch sidecars are sealed
// at: what a sidecar-served library is, down to the header.
func sealedReference(t testing.TB, path string) *Library {
	t.Helper()
	ref := parseReference(t, path)
	return &Library{lib: ref.lib.WithEpoch(sidecarEpoch), vocab: ref.vocab}
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

// settleSource waits until a file created beside path is stamped later than
// path's modification and change times: a load from then on reads a source
// that settled before it, and records its stamp. It skips the test where
// stamps are never complete.
func settleSource(t testing.TB, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	src, complete := core.StatStamp(fi)
	if !complete {
		t.Skip("this platform's stat record carries no change time, inode and device")
	}
	for {
		now, err := dirClock(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if now > src.Mtime && now > src.Ctime {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// recordedStamp returns the source stamp the sidecar of src carries, the zero
// stamp when it carries none.
func recordedStamp(t testing.TB, src string) core.FileStamp {
	t.Helper()
	b, err := os.ReadFile(src + SidecarSuffix)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.DescribeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.SourceStamp == nil {
		return core.FileStamp{}
	}
	return *d.SourceStamp
}

// editedSameSize returns the bytes of src with one action renamed to another
// of the same length, and src's modification time.
func editedSameSize(t testing.TB, src string) ([]byte, time.Time) {
	t.Helper()
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
	return edited, fi.ModTime()
}

// rewriteInPlace edits src at equal size through its own inode and puts its
// modification time back: only the change time tells.
func rewriteInPlace(t *testing.T, src string) {
	t.Helper()
	edited, mtime := editedSameSize(t, src)
	if err := os.WriteFile(src, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(src, mtime, mtime); err != nil {
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
// can be found in, against the parse of the current source.
func TestSidecarTable(t *testing.T) {
	mutateSidecar := func(f func(b []byte) []byte) func(*testing.T, string) {
		return func(t *testing.T, src string) {
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
		disturb func(t *testing.T, src string)
		want    string // prefix of the expected decision
		// settled lets the source settle before the warm-up, which must then
		// record its stamp; racy stops the warm-up's filesystem clock at the
		// source's latest time, which must keep the stamp out.
		settled, racy bool
		keyedBy       string // LibraryBacking.SidecarKeyedBy of the load, when set
	}{
		{name: "cold", want: "rebuilt: no sidecar"},
		{name: "warm", warm: true, want: SidecarHit},
		{name: "source appended to", warm: true, want: "rebuilt: source key is",
			disturb: func(t *testing.T, src string) {
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
			disturb: func(t *testing.T, src string) {
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
			disturb: func(t *testing.T, src string) {
				b, err := os.ReadFile(src)
				if err != nil {
					t.Fatal(err)
				}
				lib := parseReference(t, src)
				key := fmt.Sprintf("jsonl-sha256:%x layout:impact", sha256.Sum256(b))
				if err := writeSidecar(faultfs.OS, src+SidecarSuffix, lib.lib, lib.vocab, core.SnapshotOptions{SourceKey: []byte(key)}); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "settled source loaded again", settled: true, warm: true, want: SidecarHit, keyedBy: keyedByStamp},
		{name: "settled source edited at equal size, mtime restored", settled: true, warm: true,
			want: "rebuilt: source key is", keyedBy: keyedByHash, disturb: rewriteInPlace},
		{name: "settled source renamed over at equal size, mtime restored", settled: true, warm: true,
			want: "rebuilt: source key is", keyedBy: keyedByHash,
			disturb: func(t *testing.T, src string) {
				edited, mtime := editedSameSize(t, src)
				if err := os.WriteFile(src+".new", edited, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(src+".new", mtime, mtime); err != nil {
					t.Fatal(err)
				}
				if err := os.Rename(src+".new", src); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "source edited inside the racy window", racy: true, warm: true,
			want: "rebuilt: source key is", keyedBy: keyedByHash, disturb: rewriteInPlace},
		{name: "settled source touched", settled: true, warm: true, want: SidecarHit, keyedBy: keyedByHash,
			disturb: func(t *testing.T, src string) {
				now := time.Now()
				if err := os.Chtimes(src, now, now); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		// "impact=false": the as-loaded layout, the one layout left.
		t.Run(st.name+"/impact=false", func(t *testing.T) {
			src := filepath.Join(t.TempDir(), "lib.jsonl")
			writeSidecarSource(t, src, 21)
			if st.settled {
				settleSource(t, src)
			}
			if st.racy {
				fi, err := os.Stat(src)
				if err != nil {
					t.Fatal(err)
				}
				s, _ := core.StatStamp(fi)
				clock := dirClock
				dirClock = func(string) (int64, error) { return max(s.Mtime, s.Ctime), nil }
				defer func() { dirClock = clock }()
			}
			if st.warm {
				if _, d, err := LoadLibraryFileMapped(src); err != nil || !strings.HasPrefix(d, SidecarRebuilt) {
					t.Fatalf("warm-up: decision %q, err %v", d, err)
				}
			}
			if st.settled && recordedStamp(t, src) == (core.FileStamp{}) {
				t.Fatal("the warm-up recorded no stamp of a settled source")
			}
			if st.racy && recordedStamp(t, src) != (core.FileStamp{}) {
				t.Fatal("the warm-up recorded the stamp of a source inside the racy window")
			}
			if st.disturb != nil {
				st.disturb(t, src)
			}
			lib, decision, err := LoadLibraryFileMapped(src)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(decision, st.want) {
				t.Fatalf("decision %q, want %q…", decision, st.want)
			}
			if got := lib.Backing(); got.Backing != "mapped" || got.Sidecar != decision {
				t.Fatalf("Backing() = %+v after decision %q", got, decision)
			}
			if got := lib.Backing().SidecarKeyedBy; st.keyedBy != "" && got != st.keyedBy {
				t.Fatalf("sidecar keyed by %q after decision %q, want %q", got, decision, st.keyedBy)
			}
			assertServesLike(t, sealedReference(t, src), lib)
			// Whatever was found, the next start parses nothing.
			again, decision, err := LoadLibraryFileMapped(src)
			if err != nil || decision != SidecarHit {
				t.Fatalf("second load: decision %q, err %v; want a hit", decision, err)
			}
			assertServesLike(t, lib, again)
		})
	}
}

// TestSidecarUnwritable: when the sidecar cannot be written the parsed, heap
// library is served, as before sidecars existed, and the cause is reported.
func TestSidecarUnwritable(t *testing.T) {
	src := filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, 22)
	for _, rule := range []faultfs.Rule{
		{Op: faultfs.OpCreateTemp, Err: syscall.EROFS},
		{Op: faultfs.OpWrite, Err: faultfs.ENOSPC},
		{Op: faultfs.OpRename, Err: faultfs.EIO},
	} {
		inj := faultfs.NewInjector(nil)
		inj.Fail(rule)
		lib, decision, err := loadLibraryFileMapped(inj, src)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(decision, SidecarUnwritable+": ") {
			t.Fatalf("op %v: decision %q, want unwritable", rule.Op, decision)
		}
		if lib.Backing().Backing != "heap" {
			t.Fatalf("op %v: an unwritable sidecar left the library %q", rule.Op, lib.Backing().Backing)
		}
		assertServesLike(t, parseReference(t, src), lib)
		if _, err := os.Stat(src + SidecarSuffix); err == nil {
			t.Fatalf("op %v: a sidecar appeared despite the fault", rule.Op)
		}
	}
}

// TestSidecarConcurrentColdStarts: eight loads racing on one cold path — the
// cluster's first deployment — each write their own temp file and rename
// identical bytes; whichever file each then opens verifies.
func TestSidecarConcurrentColdStarts(t *testing.T) {
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
			libs[i], decisions[i], errs[i] = LoadLibraryFileMapped(src)
		}(i)
	}
	wg.Wait()
	want := sealedReference(t, src)
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
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, d, err := LoadLibraryFileMapped(src); err != nil || !strings.HasPrefix(d, SidecarRebuilt) {
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
// LoadLibraryFile loads it, checked against its whole-file checksum: a bit
// flipped inside the postings or an implementation offset past the slots
// passes the header CRC, but no open serves the snapshot.
func TestSidecarOtherFormats(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "lib.jsonl")
	writeSidecarSource(t, src, 25)
	want := parseReference(t, src)
	snap := filepath.Join(dir, "lib.gsnp")
	if err := want.SaveSnapshotFile(snap, false); err != nil {
		t.Fatal(err)
	}
	lib, decision, err := LoadLibraryFileMapped(snap)
	if err != nil || decision != "" {
		t.Fatalf("%s: decision %q, err %v", snap, decision, err)
	}
	assertServesLike(t, want, lib)
	if _, err := os.Stat(snap + SidecarSuffix); err == nil {
		t.Fatalf("%s got a sidecar", snap)
	}
	if _, _, err := LoadLibraryFileMapped(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("a missing library loaded")
	}

	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := core.DescribeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, damage := range []struct {
		name, section string
		apply         func(b []byte, s core.SnapshotSectionInfo)
	}{
		{"a flipped posting bit", "postings-raw", func(b []byte, s core.SnapshotSectionInfo) { b[s.Offset+s.Bytes/2] ^= 0x01 }},
		// A row would be sliced past the end of its section: a panic in the
		// first Breadth query over an image nobody verified.
		{"an implementation offset past the slots", "impl-offsets", func(b []byte, s core.SnapshotSectionInfo) {
			binary.LittleEndian.PutUint32(b[s.Offset+4:], 1<<20)
		}},
	} {
		damaged := append([]byte(nil), data...)
		for _, s := range desc.Sections {
			if s.Name == damage.section {
				damage.apply(damaged, s)
			}
		}
		replaceFile(t, snap, damaged)
		if mapped, err := OpenSnapshotFile(snap); !errors.Is(err, core.ErrCorruptSnapshot) {
			if err == nil {
				_ = mapped.Close()
			}
			t.Fatalf("OpenSnapshotFile of %s: error %v, want ErrCorruptSnapshot", damage.name, err)
		}
		if _, err := LoadLibraryFile(snap); !errors.Is(err, core.ErrCorruptSnapshot) {
			t.Fatalf("LoadLibraryFile of %s: error %v, want ErrCorruptSnapshot", damage.name, err)
		}
		if _, decision, err := LoadLibraryFileMapped(snap); !errors.Is(err, core.ErrCorruptSnapshot) || decision != "" {
			t.Fatalf("LoadLibraryFileMapped of %s: decision %q, error %v, want ErrCorruptSnapshot", damage.name, decision, err)
		}
	}

	// An image written before the checksum footer existed is walked
	// structurally: a sound one loads, one with a posting id out of range
	// does not.
	if err := want.SaveSnapshotFile(snap, false); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(snap); err != nil {
		t.Fatal(err)
	}
	footerless := data[:len(data)-8]
	replaceFile(t, snap, footerless)
	if lib, err = LoadLibraryFile(snap); err != nil {
		t.Fatalf("LoadLibraryFile of a sound footerless image: %v", err)
	}
	assertServesLike(t, want, lib)
	for _, s := range desc.Sections {
		if s.Name == "postings-raw" {
			binary.LittleEndian.PutUint32(footerless[s.Offset:], 1<<30)
		}
	}
	replaceFile(t, snap, footerless)
	if _, err := LoadLibraryFile(snap); !errors.Is(err, core.ErrCorruptSnapshot) {
		t.Fatalf("LoadLibraryFile of a footerless posting out of range: error %v, want ErrCorruptSnapshot", err)
	}
	if _, decision, err := LoadLibraryFileMapped(snap); !errors.Is(err, core.ErrCorruptSnapshot) || decision != "" {
		t.Fatalf("LoadLibraryFileMapped of a footerless posting out of range: decision %q, error %v, want ErrCorruptSnapshot", decision, err)
	}
}

// TestSidecarStampedOpensOnce: a warm start on a settled source checks the
// stamp and key, verifies and maps the sidecar through one descriptor.
func TestSidecarStampedOpensOnce(t *testing.T) {
	src := filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, 29)
	settleSource(t, src)
	if _, d, err := LoadLibraryFileMapped(src); err != nil || !strings.HasPrefix(d, SidecarRebuilt) {
		t.Fatalf("cold load: decision %q, err %v", d, err)
	}
	inj := faultfs.NewInjector(nil)
	inj.StartTrace()
	lib, d, err := loadLibraryFileMapped(inj, src)
	if err != nil || d != SidecarHit || !lib.side.stamped {
		t.Fatalf("warm load: decision %q, err %v, want a stamped hit", d, err)
	}
	if n := opensOf(inj.Trace(), src+SidecarSuffix); n != 1 {
		t.Fatalf("the sidecar was opened %d times, want once", n)
	}
	assertServesLike(t, sealedReference(t, src), lib)
}

// TestSidecarEngineIngest: an Engine seeded from a sidecar-backed library and
// fed the same ingests as one seeded from the parse serves the same epochs.
func TestSidecarEngineIngest(t *testing.T) {
	src := filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, 26)
	mapped, _, err := LoadLibraryFileMapped(src)
	if err != nil {
		t.Fatal(err)
	}
	onMapped := NewEngineFromLibrary(mapped)
	onHeap := NewEngineFromLibrary(parseReference(t, src))
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

// TestVocabChecksumMemoized: the checksum is a pure function of the snapshot
// — equal across the heap, mapped and re-opened forms of one artifact — and a later epoch that interned a name has its own.
func TestVocabChecksumMemoized(t *testing.T) {
	src := filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, 27)
	heap := parseReference(t, src)
	rebuilt, _, err := LoadLibraryFileMapped(src)
	if err != nil {
		t.Fatal(err)
	}
	hit, d, err := LoadLibraryFileMapped(src)
	if err != nil || d != SidecarHit {
		t.Fatalf("decision %q, err %v", d, err)
	}
	want := heap.VocabChecksum()
	if want != heap.computeVocabChecksum() || want != heap.VocabChecksum() {
		t.Fatal("the memoized checksum differs from the computed one")
	}
	if rebuilt.VocabChecksum() != want || hit.VocabChecksum() != want {
		t.Fatalf("checksums %016x (heap) %016x (rebuilt) %016x (hit)",
			want, rebuilt.VocabChecksum(), hit.VocabChecksum())
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

// FuzzSidecarOpen mutates a valid sidecar: the keyed open must either refuse
// it — the load then rebuilds — or serve a library identical to the parse;
// never another library, never a panic or a fault on the mapping. (It drives
// the open directly so that each mapping can be released; the rebuild that
// follows a refusal is TestSidecarTable's.)
func FuzzSidecarOpen(f *testing.F) {
	dir := f.TempDir()
	src := filepath.Join(dir, "lib.jsonl")
	writeSidecarSource(f, src, 28)
	if _, _, err := LoadLibraryFileMapped(src); err != nil {
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
	want := canonicalImage(f, sealedReference(f, src))
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
		snap, err := core.OpenSnapshotVerified(nil, side, core.KeyIs(key))
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

// BenchmarkLoadLibraryFileMapped times a warm start from the sidecar of a
// settled source of 20 000 implementations in the repository benchmark's
// line shape. "stamped" finds the stamp the sidecar recorded and reads no
// source bytes; "hashed" moves the source's times before each load, so the
// load hashes the source to find the same sidecar. The rows differ by the
// hash the stamp saves. Every load maps the sidecar anew, and a mapped
// library stays mapped.
func BenchmarkLoadLibraryFileMapped(b *testing.B) {
	src := filepath.Join(b.TempDir(), "lib.jsonl")
	rng := rand.New(rand.NewSource(41))
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, `{"goal":"g%d","actions":[`, i/2)
		for j, n := 0, 2+rng.Intn(13); j < n; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			f := rng.Float64()
			fmt.Fprintf(&sb, `"a%d"`, int(f*f*10000))
		}
		sb.WriteString("]}\n")
	}
	if err := os.WriteFile(src, []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	settleSource(b, src)
	if _, d, err := LoadLibraryFileMapped(src); err != nil || !strings.HasPrefix(d, SidecarRebuilt) {
		b.Fatalf("cold load: decision %q, err %v", d, err)
	}
	for _, row := range []struct{ name, keyedBy string }{{"stamped", keyedByStamp}, {"hashed", keyedByHash}} {
		keyedBy := row.keyedBy
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(sb.Len()))
			for i := 0; i < b.N; i++ {
				if keyedBy == keyedByHash {
					b.StopTimer()
					at := time.Unix(1_000_000_000+int64(i), 0)
					if err := os.Chtimes(src, at, at); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				lib, d, err := LoadLibraryFileMapped(src)
				if err != nil || d != SidecarHit {
					b.Fatalf("decision %q, err %v", d, err)
				}
				if got := lib.Backing().SidecarKeyedBy; got != keyedBy {
					b.Fatalf("sidecar keyed by %q, want %q", got, keyedBy)
				}
			}
		})
	}
}
