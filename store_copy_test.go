package goalrec

import (
	"bytes"
	"context"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/faultfs"
)

// seedSidecar writes a seeded JSON-lines library and loads it the way
// goalrecd does, from its sidecar. It returns the source's path, the
// sidecar-served library and the parse of the source, which is the oracle
// every persisted form must serve like.
func seedSidecar(t testing.TB, seed int64) (src string, mapped, oracle *Library) {
	t.Helper()
	src = filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, seed)
	mapped, decision, err := LoadLibraryFileMapped(src)
	if err != nil || mapped.side == nil {
		t.Fatalf("loading %s: decision %q, err %v", src, decision, err)
	}
	return src, mapped, parseReference(t, src)
}

// expectedCopy is what persisting stamped by copying its sidecar writes: the
// serialiser's image of stamped, keyed and source-stamped like the sidecar.
func expectedCopy(t testing.TB, stamped *Library) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, stamped.lib, stamped.vocab, core.SnapshotOptions{SourceKey: stamped.side.key, SourceStamp: recordedStamp(t, stamped.side.src)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotWriter names the path that wrote the last store snapshot renamed
// into place in trace: "link" when its temp name was a link, "copy" when the
// sidecar file was read between that temp file's creation and its rename,
// "serialise" when nothing touched it, and "none" when no snapshot was
// renamed into place and no temp name made.
func snapshotWriter(t testing.TB, trace []faultfs.Site, sidecar string) string {
	t.Helper()
	rename := -1
	for i, site := range trace {
		if site.Op == faultfs.OpRename && strings.HasPrefix(filepath.Base(site.Path), "snap-") {
			rename = i
		}
	}
	if rename < 0 {
		for _, site := range trace {
			if site.Op == faultfs.OpCreateTemp || site.Op == faultfs.OpLink {
				t.Fatalf("%s, but no snapshot renamed into place", site)
			}
		}
		return "none"
	}
	temp := -1
	for i := rename - 1; i >= 0 && temp < 0; i-- {
		if op := trace[i].Op; op == faultfs.OpCreateTemp || op == faultfs.OpLink {
			temp = i
		}
	}
	if temp < 0 {
		t.Fatalf("no snapshot write in the trace (%d sites)", len(trace))
	}
	if trace[temp].Op == faultfs.OpLink {
		return "link"
	}
	for _, site := range trace[temp:rename] {
		if site.Path == sidecar {
			return "copy"
		}
	}
	return "serialise"
}

// sameFile reports whether the names a and b are one file.
func sameFile(t testing.TB, a, b string) bool {
	t.Helper()
	fa, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	return os.SameFile(fa, fb)
}

// storeUsers are the histories seedPreSwap appends: names of the sidecar
// libraries, names of storeIngest's, and a name neither knows.
var storeUsers = map[string][]string{
	"u1": {"act-001", "act-004", "act-017"},
	"u2": {"act-002", "act-1", "no-such-action"},
}

// seedPreSwap gives a store a history for a swap to supersede: two ingested
// batches and every storeUsers append, all in the WAL.
func seedPreSwap(t *testing.T, s *Store) {
	t.Helper()
	storeIngest(t, s.Engine(), 0, 20)
	storeIngest(t, s.Engine(), 20, 9)
	appendStoreUsers(t, s)
}

// appendStoreUsers appends every storeUsers history to s.
func appendStoreUsers(t *testing.T, s *Store) {
	t.Helper()
	for _, id := range []string{"u1", "u2"} {
		if _, err := s.Users().Append(id, storeUsers[id]); err != nil {
			t.Fatal(err)
		}
	}
}

// sameRanking is reflect.DeepEqual with an empty ranking equal to nil.
func sameRanking(a, b []Recommendation) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// assertStoreServes fails unless the store serves oracle at epoch: every
// strategy on every probe activity, and every storeUsers history with its
// stored-user ranking, bit-identical to a from-scratch query on the oracle.
func assertStoreServes(t testing.TB, s *Store, oracle *Library, epoch uint64) {
	t.Helper()
	e := s.Engine()
	if e.Epoch() != epoch {
		t.Fatalf("store at epoch %d, want %d", e.Epoch(), epoch)
	}
	for _, st := range Strategies() {
		rec, err := e.Recommender(st)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.MustRecommender(st)
		for _, activity := range sidecarActivities {
			if g, w := rec.Recommend(activity, 10), want.Recommend(activity, 10); !sameRanking(g, w) {
				t.Fatalf("%s %v: ranking %v, want %v", st, activity, g, w)
			}
		}
		for id, history := range storeUsers {
			got, err := s.Users().History(id)
			if err != nil || !reflect.DeepEqual(got, history) {
				t.Fatalf("user %s: history %v (err %v), want %v", id, got, err, history)
			}
			res, err := s.Users().Recommend(context.Background(), id, st, 10)
			if err != nil {
				t.Fatal(err)
			}
			if w := want.Recommend(history, 10); !sameRanking(res.Recommendations, w) {
				t.Fatalf("user %s %s: ranking %v, want %v", id, st, res.Recommendations, w)
			}
		}
	}
}

// TestStoreSeedCopiesSidecar: seeding a store with a sidecar-served library
// persists exactly the snapshot the serialiser would write of it, keyed like
// the sidecar — as the sidecar file itself, hard-linked, since sidecars are
// sealed at the epoch a seed publishes.
func TestStoreSeedCopiesSidecar(t *testing.T) {
	_, mapped, _ := seedSidecar(t, 31)
	s, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stamped := s.Engine().Swap(mapped)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.snapPath(stamped.Epoch()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, expectedCopy(t, stamped)) {
		t.Fatal("the seeded snapshot differs from the serialiser's image of the library")
	}
	if !sameFile(t, s.snapPath(stamped.Epoch()), mapped.side.src+SidecarSuffix) {
		t.Fatal("the seeded snapshot is not the sidecar's file")
	}
}

// TestStoreSeedChecksumsSidecarOnce: a fresh seed from a sidecar-served
// library links the sidecar without a second pass over the bytes the load's
// verified open just checksummed, so load and seed together put the
// sidecar's size through the CRC once. When the sidecar's stamp moved since
// the load — its times set, or a byte rewritten in place with its own value
// (same inode, new modification and change times) — the link scrubs the file
// again first, and still links it.
func TestStoreSeedChecksumsSidecarOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disturb func(t *testing.T, sidecar string)
		passes  int64 // whole-file CRC passes over the sidecar
	}{
		{name: "unchanged", passes: 1},
		{name: "times moved", passes: 2,
			disturb: func(t *testing.T, sidecar string) {
				old := time.Now().Add(-time.Hour)
				if err := os.Chtimes(sidecar, old, old); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "byte rewritten in place with its own value", passes: 2,
			disturb: func(t *testing.T, sidecar string) {
				// The rewrite's times must be newer than the file's.
				settleSource(t, sidecar)
				f, err := os.OpenFile(sidecar, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				fi, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				b := make([]byte, 1)
				if _, err := f.ReadAt(b, fi.Size()/2); err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(b, fi.Size()/2); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, _, _ := seedSidecar(t, 31)
			sidecar := src + SidecarSuffix
			fi, err := os.Stat(sidecar)
			if err != nil {
				t.Fatal(err)
			}
			if _, complete := core.StatStamp(fi); !complete {
				t.Skip("this platform's stat record carries no change time, inode and device")
			}
			before := ReadIOStats()
			mapped, decision, err := LoadLibraryFileMapped(src)
			if err != nil || decision != SidecarHit {
				t.Fatalf("loading %s: decision %q, err %v", src, decision, err)
			}
			if tc.disturb != nil {
				tc.disturb(t, sidecar)
			}
			s, err := OpenStore(t.TempDir(), StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			stamped := s.Engine().Swap(mapped)
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if got, want := ReadIOStats().BytesChecksummed-before.BytesChecksummed, tc.passes*fi.Size(); got != want {
				t.Fatalf("load and seed checksummed %d bytes, want %d (%d× the %d-byte sidecar)", got, want, tc.passes, fi.Size())
			}
			if !sameFile(t, s.snapPath(stamped.Epoch()), sidecar) {
				t.Fatal("the seeded snapshot is not the sidecar's file")
			}
		})
	}
}

// flipSidecarByte flips a bit in the middle of src's sidecar, replacing the
// file by rename, and returns mapped.
func flipSidecarByte(t *testing.T, src string, mapped *Library) *Library {
	t.Helper()
	b, err := os.ReadFile(src + SidecarSuffix)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	replaceFile(t, src+SidecarSuffix, b)
	return mapped
}

// TestStoreSnapshotPathTable: a swap — and a compaction before any ingest —
// links the sidecar when the library is its verified image at the epoch the
// sidecar was sealed at (a fresh seed), copies it at any other epoch or when
// the filesystem refuses the link, and serialises otherwise, logging why
// when the link or the copy refused. Whichever path ran, the snapshot scrubs
// clean and recovers the swapped epoch serving like the parse of the source,
// whatever became of the sidecar since.
func TestStoreSnapshotPathTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		// prepare returns the library to swap in, given the source and its
		// sidecar-served load, disturbing whatever the row is about.
		prepare func(t *testing.T, src string, mapped *Library) *Library
		// fresh swaps into an empty store (the seed publishes epoch 1) and
		// appends the users after it; otherwise seedPreSwap runs first.
		fresh bool
		// linkErr fails every link the store makes.
		linkErr error
		// after disturbs the sidecar once the swap persisted.
		after   func(t *testing.T, src string)
		compact bool   // trace a Compact after the swap instead of the swap
		want    string // "link", "copy", "serialise" or "none"
		refusal string // what the logged copy refusal names; "" for no log line
		linkLog bool   // one "not linked" line is logged
	}{
		{name: "sidecar-served seed", want: "copy"},
		{name: "compaction before any ingest", compact: true, want: "copy"},
		{name: "heap-built seed", want: "serialise",
			prepare: func(t *testing.T, src string, _ *Library) *Library { return parseReference(t, src) }},
		{name: "sidecar replaced by another source's", want: "serialise", refusal: "source key is",
			prepare: func(t *testing.T, src string, mapped *Library) *Library {
				other, _, _ := seedSidecar(t, 32)
				if err := os.Rename(other+SidecarSuffix, src+SidecarSuffix); err != nil {
					t.Fatal(err)
				}
				return mapped
			}},
		{name: "sidecar body byte flipped", want: "serialise", refusal: "checksum mismatch",
			prepare: flipSidecarByte},
		{name: "sidecar deleted", want: "serialise", refusal: "no such file",
			prepare: func(t *testing.T, src string, mapped *Library) *Library {
				if err := os.Remove(src + SidecarSuffix); err != nil {
					t.Fatal(err)
				}
				return mapped
			}},
		{name: "vocabulary grown before the swap", want: "serialise",
			prepare: func(t *testing.T, _ string, mapped *Library) *Library {
				// Another engine over the same library interns into its
				// vocabulary, which the serialiser persists and the sidecar
				// lacks.
				if err := NewEngineFromLibrary(mapped).AddImplementation("goal-000", "act-000", "a-name-never-seen"); err != nil {
					t.Fatal(err)
				}
				return mapped
			}},
		{name: "fresh seed", fresh: true, want: "link"},
		{name: "fresh seed from a sidecar sealed at epoch 0", fresh: true, want: "copy",
			prepare: func(t *testing.T, src string, mapped *Library) *Library {
				// What an older release sealed: the same image at epoch 0.
				ref := parseReference(t, src)
				if err := writeSidecar(faultfs.OS, src+SidecarSuffix, ref.lib, ref.vocab, core.SnapshotOptions{SourceKey: mapped.side.key, SourceStamp: recordedStamp(t, src)}); err != nil {
					t.Fatal(err)
				}
				old, decision, err := LoadLibraryFileMapped(src)
				if err != nil || decision != SidecarHit || old.Epoch() != 0 {
					t.Fatalf("loading the epoch-0 sidecar: decision %q, epoch %d, err %v", decision, old.Epoch(), err)
				}
				return old
			}},
		{name: "compaction right after a fresh seed", fresh: true, compact: true, want: "none"},
		{name: "fresh seed, link refused across devices, then a compaction", fresh: true, compact: true,
			linkErr: syscall.EXDEV, want: "copy", linkLog: true},
		{name: "fresh seed, link not permitted", fresh: true, linkErr: syscall.EPERM, want: "copy", linkLog: true},
		{name: "fresh seed body byte flipped", fresh: true, want: "serialise", refusal: "checksum mismatch",
			prepare: flipSidecarByte},
		{name: "sidecar replaced by rename after a fresh seed", fresh: true, want: "link",
			after: func(t *testing.T, src string) {
				other, _, _ := seedSidecar(t, 32)
				if err := os.Rename(other+SidecarSuffix, src+SidecarSuffix); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "sidecar deleted after a fresh seed", fresh: true, want: "link",
			after: func(t *testing.T, src string) {
				if err := os.Remove(src + SidecarSuffix); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, mapped, oracle := seedSidecar(t, 31)
			sidecar := src + SidecarSuffix
			lib := mapped
			if tc.prepare != nil {
				lib = tc.prepare(t, src, mapped)
			}
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil)
			if tc.linkErr != nil {
				inj.Fail(faultfs.Rule{Op: faultfs.OpLink, Err: tc.linkErr})
			}
			var logs bytes.Buffer
			s, err := OpenStore(dir, StoreOptions{FS: inj, Logger: log.New(&logs, "", 0)})
			if err != nil {
				t.Fatal(err)
			}
			if !tc.fresh {
				seedPreSwap(t, s)
			}

			inj.StartTrace()
			stamped := s.Engine().Swap(lib)
			trace := inj.Trace()
			var image []byte
			if tc.want != "serialise" {
				image = expectedCopy(t, stamped)
			}
			if tc.fresh {
				appendStoreUsers(t, s)
			}
			if tc.after != nil {
				tc.after(t, src)
			}
			if tc.compact {
				inj.StartTrace()
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				trace = inj.Trace()
			}
			if err := s.Err(); err != nil {
				t.Fatalf("persisting the swap: %v", err)
			}
			if got := snapshotWriter(t, trace, sidecar); got != tc.want {
				t.Fatalf("the snapshot was written by %s, want %s", got, tc.want)
			}
			refusals := strings.Count(logs.String(), "serialised, not copied")
			if tc.refusal == "" && refusals != 0 || tc.refusal != "" && (refusals != 1 || !strings.Contains(logs.String(), tc.refusal)) {
				t.Fatalf("store log %q, want %d refusal naming %q", logs.String(), min(len(tc.refusal), 1), tc.refusal)
			}
			if links := strings.Count(logs.String(), "copied, not linked"); links != 0 && !tc.linkLog || links != 1 && tc.linkLog {
				t.Fatalf("store log %q: %d failed links logged", logs.String(), links)
			}
			path := s.snapPath(stamped.Epoch())
			if err := core.ScrubSnapshotFile(nil, path); err != nil {
				t.Fatal(err)
			}
			if image != nil {
				got, err := os.ReadFile(path)
				if err != nil || !bytes.Equal(got, image) {
					t.Fatalf("the snapshot differs from the serialiser's image (err %v)", err)
				}
			}
			if tc.after == nil && (tc.want == "link" || tc.want == "none" || tc.want == "copy") {
				if linked := tc.want != "copy"; sameFile(t, path, sidecar) != linked {
					t.Fatalf("the snapshot shares the sidecar's file: %v, want %v", !linked, linked)
				}
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, ".snap-*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !bytes.Equal(canonicalImage(t, s2.Engine().Snapshot()), canonicalImage(t, stamped)) {
				t.Fatal("the recovered library differs from the swapped one")
			}
			assertStoreServes(t, s2, oracle, stamped.Epoch())
		})
	}
}

// TestSnapshotFilesNeverWrittenInPlace traces every filesystem operation of
// a sidecar's build and rebuild and of a store's life — a seed, ingests, a
// compaction, a swap, a scrub that quarantines, and the pruning after each
// snapshot — and finds no write, truncation or open for writing on a
// snapshot file: only .snap-*.tmp temps and the WAL are written. A store's
// snapshot may be the sidecar's own file (a hard link), which is sound only
// because of this.
func TestSnapshotFilesNeverWrittenInPlace(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	inj.StartTrace()
	src := filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, 36)
	seed, decision, err := loadLibraryFileMapped(inj, src)
	if err != nil || seed.side == nil {
		t.Fatalf("building the sidecar: decision %q, err %v", decision, err)
	}
	// The swap's library: another source's sidecar, rebuilt over a stale one.
	other := filepath.Join(filepath.Dir(src), "other.jsonl")
	writeSidecarSource(t, other, 37)
	if _, _, err := loadLibraryFileMapped(inj, other); err != nil {
		t.Fatal(err)
	}
	writeSidecarSource(t, other, 38)
	swapped, decision, err := loadLibraryFileMapped(inj, other)
	if err != nil || !strings.HasPrefix(decision, SidecarRebuilt) {
		t.Fatalf("rebuilding the sidecar: decision %q, err %v", decision, err)
	}

	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Engine().Swap(seed)
	storeIngest(t, s.Engine(), 0, 20)
	appendStoreUsers(t, s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	stamped := s.Engine().Swap(swapped)
	b, err := os.ReadFile(s.snapPath(stamped.Epoch()))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	replaceFile(t, s.snapPath(stamped.Epoch()), b)
	if err := s.Scrub(); err == nil {
		t.Fatal("the scrub found no corruption")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	seen := map[faultfs.Op]bool{}
	for _, site := range inj.Trace() {
		name := filepath.Base(site.Path)
		switch site.Op {
		case faultfs.OpWrite, faultfs.OpWriteAt, faultfs.OpTruncate, faultfs.OpOpenFile:
			if strings.Contains(name, ".gsnp") {
				t.Fatalf("%s: a snapshot file written in place", site)
			}
			if !(strings.HasPrefix(name, ".snap-") && strings.HasSuffix(name, ".tmp")) && !strings.HasPrefix(name, "ingest.wal") {
				t.Fatalf("%s: neither a snapshot temp nor the WAL", site)
			}
		case faultfs.OpRename:
			if strings.HasSuffix(name, ".quarantine") {
				seen[site.Op] = true
			}
		case faultfs.OpLink, faultfs.OpRemove, faultfs.OpCreateTemp:
			seen[site.Op] = true
		}
	}
	for _, op := range []faultfs.Op{faultfs.OpLink, faultfs.OpCreateTemp, faultfs.OpRename, faultfs.OpRemove} {
		if !seen[op] {
			t.Fatalf("the workload ran no %s (a quarantine for rename, a prune for remove)", op)
		}
	}
	if q := s.Status().Quarantined; len(q) != 1 {
		t.Fatalf("quarantined %v, want one snapshot", q)
	}
}
