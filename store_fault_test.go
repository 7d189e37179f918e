package goalrec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/faultfs"
)

// probeFast are store options tuned so degraded-mode tests converge quickly.
func probeFast(fsys faultfs.FS) StoreOptions {
	return StoreOptions{
		FS:            fsys,
		ProbeInterval: 5 * time.Millisecond,
		RecoverAfter:  2,
	}
}

func waitForMode(t *testing.T, s *Store, mode string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Status().Mode == mode {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("store never reached mode %q (now %q, last error %q)",
		mode, s.Status().Mode, s.Status().LastError)
}

// TestStoreDegradedReadOnlyAndRecovery is the full degraded-mode arc: a full
// disk rejects an ingest with ErrReadOnly (wrapped in ErrJournal), reads keep
// serving bit-identical rankings, and once space returns the write probe
// lifts the mode on its own and ingest resumes.
func TestStoreDegradedReadOnlyAndRecovery(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s, err := OpenStore(t.TempDir(), probeFast(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := s.Engine()
	storeIngest(t, e, 0, 30)
	epoch, n := e.Epoch(), e.Len()
	want := storeRankings(t, e)

	inj.SetWriteBudget(0) // the disk is full
	_, err = e.AddImplementations([]Implementation{{Goal: "g", Actions: []string{"a"}}})
	if !errors.Is(err, ErrJournal) || !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ingest on a full disk = %v, want ErrJournal wrapping ErrReadOnly", err)
	}
	if e.Epoch() != epoch || e.Len() != n {
		t.Fatal("rejected ingest mutated the published library")
	}
	st := s.Status()
	if st.Mode != StorageReadOnly || st.LastError == "" || st.Degradations != 1 {
		t.Fatalf("status after degrade = %+v", st)
	}
	// Reads are untouched in read-only mode.
	if got := storeRankings(t, e); !reflect.DeepEqual(got, want) {
		t.Fatal("rankings changed while degraded")
	}
	// Writes stay rejected without touching the device.
	if _, err := s.Users().Append("u1", []string{"act-1"}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("user append while degraded = %v, want ErrReadOnly", err)
	}

	inj.SetWriteBudget(-1) // space returns
	waitForMode(t, s, StorageHealthy)
	st = s.Status()
	if st.Recoveries != 1 || st.LastError != "" {
		t.Fatalf("status after recovery = %+v", st)
	}
	storeIngest(t, e, 100, 5)
	if e.Epoch() != epoch+1 {
		t.Fatalf("epoch after recovery ingest = %d, want %d", e.Epoch(), epoch+1)
	}

	// And nothing acknowledged is lost across a restart.
	wantEpoch, wantLen := e.Epoch(), e.Len()
	want = storeRankings(t, e)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(s.dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Engine().Epoch() != wantEpoch || s2.Engine().Len() != wantLen {
		t.Fatalf("restart after recovery: epoch %d len %d, want %d/%d",
			s2.Engine().Epoch(), s2.Engine().Len(), wantEpoch, wantLen)
	}
	if got := storeRankings(t, s2.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatal("rankings changed across restart")
	}
}

// TestStoreWriteFaultTable drives every write-path fault class the ISSUE
// names — ENOSPC on append, fsync failure with -wal-sync, fsync failure on
// compaction's snapshot, ENOSPC on the WAL rewrite — and asserts the store
// lands in read-only mode without panicking or corrupting published state.
func TestStoreWriteFaultTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sync    bool
		arm     func(inj *faultfs.Injector)
		trip    func(t *testing.T, s *Store) error
		degrade bool
	}{
		{
			name: "append-enospc",
			arm: func(inj *faultfs.Injector) {
				inj.Fail(faultfs.Rule{Op: faultfs.OpWriteAt, Path: "wal", Err: faultfs.ENOSPC})
			},
			trip: func(t *testing.T, s *Store) error {
				_, err := s.Engine().AddImplementations([]Implementation{{Goal: "g", Actions: []string{"a"}}})
				return err
			},
			degrade: true,
		},
		{
			name: "append-fsync-eio",
			sync: true,
			arm:  func(inj *faultfs.Injector) { inj.Fail(faultfs.Rule{Op: faultfs.OpSync, Path: "wal", Err: faultfs.EIO}) },
			trip: func(t *testing.T, s *Store) error {
				_, err := s.Engine().AddImplementations([]Implementation{{Goal: "g", Actions: []string{"a"}}})
				return err
			},
			degrade: true,
		},
		{
			name: "user-append-enospc",
			arm: func(inj *faultfs.Injector) {
				inj.Fail(faultfs.Rule{Op: faultfs.OpWriteAt, Path: "wal", Err: faultfs.ENOSPC})
			},
			trip: func(t *testing.T, s *Store) error {
				_, err := s.Users().Append("u", []string{"act-1"})
				return err
			},
			degrade: true,
		},
		{
			name: "compaction-snapshot-enospc",
			arm: func(inj *faultfs.Injector) {
				inj.Fail(faultfs.Rule{Op: faultfs.OpWrite, Path: ".snap-", Err: faultfs.ENOSPC})
			},
			trip: func(t *testing.T, s *Store) error {
				// Compaction failure alone is not fatal — the WAL still holds
				// everything — so it must NOT degrade the store.
				if err := s.Compact(); err == nil {
					t.Fatal("compaction with failing snapshot write succeeded")
				}
				return nil
			},
			degrade: false,
		},
		{
			name: "wal-rewrite-enospc",
			arm: func(inj *faultfs.Injector) {
				// The fresh log after compaction: fail its header write.
				inj.Fail(faultfs.Rule{Op: faultfs.OpTruncate, Path: "wal", Err: faultfs.ENOSPC})
			},
			trip: func(t *testing.T, s *Store) error {
				if err := s.Compact(); err == nil {
					t.Fatal("compaction with failing WAL rewrite succeeded")
				}
				return nil
			},
			degrade: false,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultfs.NewInjector(nil)
			opts := probeFast(inj)
			opts.SyncWAL = tc.sync
			s, err := OpenStore(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			storeIngest(t, s.Engine(), 0, 20)
			want := storeRankings(t, s.Engine())

			tc.arm(inj)
			if err := tc.trip(t, s); tc.degrade && !errors.Is(err, ErrReadOnly) {
				t.Fatalf("tripping fault = %v, want ErrReadOnly", err)
			}
			if got, wantMode := s.Status().Mode, StorageHealthy; tc.degrade {
				if got != StorageReadOnly {
					t.Fatalf("mode = %q, want read_only", got)
				}
			} else if got != wantMode {
				t.Fatalf("mode = %q, want healthy", got)
			}
			if got := storeRankings(t, s.Engine()); !reflect.DeepEqual(got, want) {
				t.Fatal("published rankings changed under the fault")
			}
			inj.ClearRules()
		})
	}
}

// TestStoreTransientAppendErrorRetriesInPlace: an EINTR-class hiccup is
// absorbed by the bounded retry — the ingest succeeds and the store never
// leaves healthy mode.
func TestStoreTransientAppendErrorRetriesInPlace(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s, err := OpenStore(t.TempDir(), probeFast(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storeIngest(t, s.Engine(), 0, 5)

	inj.Fail(faultfs.Rule{Op: faultfs.OpWriteAt, Path: "wal", Err: faultfs.EINTR, Once: true})
	storeIngest(t, s.Engine(), 5, 5)
	if st := s.Status(); st.Mode != StorageHealthy || st.Degradations != 0 {
		t.Fatalf("transient error degraded the store: %+v", st)
	}
}

// TestStoreQuarantinesCorruptNewestSnapshot: corrupt the newest snapshot's
// body at rest; reopening must quarantine it (file preserved under
// *.quarantine), fall back to the previous snapshot plus the longer WAL
// tail, and serve bit-identical rankings.
func TestStoreQuarantinesCorruptNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 0, 30)
	if err := s.Compact(); err != nil { // snapshot generation 1
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 30, 20)
	if err := s.Compact(); err != nil { // snapshot generation 2
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 50, 7) // a WAL tail past the newest snapshot
	wantEpoch, wantLen := s.Engine().Epoch(), s.Engine().Len()
	want := storeRankings(t, s.Engine())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := snapshotEpochs(nil, dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshot generations, have %v (%v)", snaps, err)
	}
	newest := filepath.Join(dir, fmt.Sprintf("snap-%016d.gsnp", snaps[1]))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20 // silent body corruption: header CRC still valid
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Engine().Epoch() != wantEpoch || s2.Engine().Len() != wantLen {
		t.Fatalf("fallback recovery: epoch %d len %d, want %d/%d",
			s2.Engine().Epoch(), s2.Engine().Len(), wantEpoch, wantLen)
	}
	if got := storeRankings(t, s2.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatal("rankings differ after falling back past the corrupt snapshot")
	}
	// Evidence preserved, not deleted.
	if _, err := os.Stat(newest + ".quarantine"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot still present under its live name: %v", err)
	}
	st := s2.Status()
	if len(st.Quarantined) != 1 || !strings.HasSuffix(st.Quarantined[0], ".quarantine") || st.ScrubFailures == 0 {
		t.Fatalf("status after quarantine = %+v", st)
	}
}

// TestStoreQuarantinesFooterlessBadOffsets: a snapshot without a checksum
// footer whose offsets array — implementation, posting, goal or GA — points
// one row past its section is refused by the scrub and, at open, quarantined
// with recovery falling back a generation; neither walks off the section.
func TestStoreQuarantinesFooterlessBadOffsets(t *testing.T) {
	for _, tc := range []struct {
		section string
		last    bool // push the last offset instead of the second
	}{
		{"impl-offsets", false}, {"posting-offsets", false}, {"goal-impl-offsets", false},
		{"ga-offsets", false}, {"ga-offsets", true},
	} {
		t.Run(fmt.Sprintf("%s/last=%v", tc.section, tc.last), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			storeIngest(t, s.Engine(), 0, 30)
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			storeIngest(t, s.Engine(), 30, 20)
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			storeIngest(t, s.Engine(), 50, 7)
			wantEpoch, want := s.Engine().Epoch(), storeRankings(t, s.Engine())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			snaps, err := snapshotEpochs(nil, dir)
			if err != nil || len(snaps) != 2 {
				t.Fatalf("want 2 snapshot generations, have %v (%v)", snaps, err)
			}
			newest := s.snapPath(snaps[1])

			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.DescribeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, sec := range d.Sections {
				if at := sec.Offset + 4; sec.Name == tc.section {
					if tc.last {
						at = sec.Offset + sec.Bytes - 4
					}
					binary.LittleEndian.PutUint32(data[at:], 1<<20)
				}
			}
			if err := os.WriteFile(newest, data[:len(data)-8], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := core.ScrubSnapshotFile(nil, newest); !errors.Is(err, core.ErrCorruptSnapshot) {
				t.Fatalf("scrub: %v, want ErrCorruptSnapshot", err)
			}

			s2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Engine().Epoch() != wantEpoch || !reflect.DeepEqual(storeRankings(t, s2.Engine()), want) {
				t.Fatalf("fallback recovery at epoch %d, want %d with the same rankings", s2.Engine().Epoch(), wantEpoch)
			}
			if st := s2.Status(); len(st.Quarantined) != 1 || st.ScrubFailures != 1 {
				t.Fatalf("status after quarantine = %+v", st)
			}
			if _, err := os.Stat(newest + ".quarantine"); err != nil {
				t.Fatalf("quarantined file missing: %v", err)
			}
		})
	}
}

// TestStoreOpensAdoptedSnapshotOnce: the open-time scrub and the mapping of
// the snapshot a store adopts share one descriptor.
func TestStoreOpensAdoptedSnapshotOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 0, 30)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	epoch := s.Engine().Epoch()
	path := s.snapPath(epoch)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(nil)
	inj.StartTrace()
	s2, err := OpenStore(dir, StoreOptions{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Engine().Epoch() != epoch {
		t.Fatalf("recovered epoch %d, want %d", s2.Engine().Epoch(), epoch)
	}
	if n := opensOf(inj.Trace(), path); n != 1 {
		t.Fatalf("the adopted snapshot was opened %d times, want once", n)
	}
}

// opensOf counts the opens of path in trace.
func opensOf(trace []faultfs.Site, path string) int {
	n := 0
	for _, site := range trace {
		if site.Op == faultfs.OpOpen && site.Path == path {
			n++
		}
	}
	return n
}

// TestStoreScrubFindsAtRestCorruption: the periodic scrubber quarantines a
// snapshot corrupted while the store is running and compacts a replacement.
func TestStoreScrubFindsAtRestCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storeIngest(t, s.Engine(), 0, 25)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Scrub(); err != nil {
		t.Fatalf("scrub of a clean store: %v", err)
	}
	if st := s.Status(); st.ScrubPasses != 1 {
		t.Fatalf("clean scrub not counted: %+v", st)
	}

	snaps, _ := snapshotEpochs(nil, dir)
	path := filepath.Join(dir, fmt.Sprintf("snap-%016d.gsnp", snaps[len(snaps)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x08
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.Scrub(); err == nil {
		t.Fatal("scrub missed at-rest corruption")
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("scrubber did not quarantine: %v", err)
	}
	// The post-scrub compaction restored snapshot coverage at the live epoch.
	snaps, err = snapshotEpochs(nil, dir)
	if err != nil || len(snaps) == 0 || snaps[len(snaps)-1] != s.Engine().Epoch() {
		t.Fatalf("coverage not restored: snapshots %v (err %v), engine epoch %d",
			snaps, err, s.Engine().Epoch())
	}
}

// TestStorePruneFailuresCountedAndRetried: failed prunes land in the metric
// and the file is retried — and removed — by the next compaction.
func TestStorePruneFailuresCountedAndRetried(t *testing.T) {
	inj := faultfs.NewInjector(nil)
	s, err := OpenStore(t.TempDir(), probeFast(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Fill the keepSnapshots generations, so the next compaction prunes.
	for i := 0; i < keepSnapshots; i++ {
		storeIngest(t, s.Engine(), i*10, 10)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	inj.Fail(faultfs.Rule{Op: faultfs.OpRemove, Path: ".gsnp", Err: faultfs.EIO})
	storeIngest(t, s.Engine(), 20, 10)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.PruneFailures == 0 {
		t.Fatalf("failed prune not counted: %+v", st)
	}
	if snaps, _ := snapshotEpochs(inj, s.dir); len(snaps) != keepSnapshots+1 {
		t.Fatalf("unpruned snapshot vanished anyway: %v", snaps)
	}

	inj.ClearRules()
	storeIngest(t, s.Engine(), 30, 10)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := snapshotEpochs(inj, s.dir); len(snaps) != keepSnapshots {
		t.Fatalf("prune retry did not catch up: %v", snaps)
	}
}

// storeState is what a store directory recovers to: the epoch, the library's
// canonical image (structure and vocabulary), every strategy's rankings on
// the probe activities and every storeUsers history. Two recoveries with
// equal states serve bit-identically.
type storeState struct {
	Epoch uint64
	Image []byte
	Rank  map[Strategy][][]Recommendation
	Users map[string][]string
}

// recoverState opens the store in dir on the real filesystem, takes its
// state and closes it again.
func recoverState(t *testing.T, dir string) storeState {
	t.Helper()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopening %s: %v", dir, err)
	}
	defer s.Close()
	e := s.Engine()
	st := storeState{
		Epoch: e.Epoch(),
		Image: canonicalImage(t, e.Snapshot()),
		Rank:  map[Strategy][][]Recommendation{},
		Users: map[string][]string{},
	}
	activities := append([][]string{{"act-1", "act-7", "act-13"}}, sidecarActivities...)
	for _, strat := range Strategies() {
		rec, err := e.Recommender(strat)
		if err != nil {
			t.Fatal(err)
		}
		for _, activity := range activities {
			st.Rank[strat] = append(st.Rank[strat], rec.Recommend(activity, 10))
		}
	}
	for id := range storeUsers {
		if h, err := s.Users().History(id); err == nil {
			st.Users[id] = h
		}
	}
	return st
}

// snapTemps lists the snapshot temp files in dir.
func snapTemps(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, ".snap-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// ageFiles backdates paths past the stale-temp age rule.
func ageFiles(t *testing.T, paths ...string) {
	t.Helper()
	old := time.Now().Add(-2 * staleTempAge)
	for _, p := range paths {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreRemovesStaleSnapshotTemps: a crash inside a snapshot write leaves
// its temp file; OpenStore, and every later successful snapshot write, remove
// such leftovers once they are older than the age rule and leave younger
// ones — possibly another process's write in progress — alone. Recovery is
// unaffected throughout.
func TestStoreRemovesStaleSnapshotTemps(t *testing.T) {
	run := func(dir string, inj *faultfs.Injector) {
		s, err := OpenStore(dir, StoreOptions{FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		storeIngest(t, s.Engine(), 0, 20)
		storeIngest(t, s.Engine(), 20, 11)
		_ = s.Compact()
		_ = s.Close()
	}
	// A traced clean run finds the compaction's first snapshot write; the
	// faulted run crashes there.
	cleanDir, clean := t.TempDir(), faultfs.NewInjector(nil)
	clean.StartTrace()
	run(cleanDir, clean)
	at := int64(-1)
	for _, site := range clean.Trace() {
		if site.Op == faultfs.OpWrite && strings.Contains(site.Path, ".snap-") {
			at = site.Index
			break
		}
	}
	if at < 0 {
		t.Fatal("the compaction wrote no snapshot")
	}
	want := recoverState(t, cleanDir)

	dir, inj := t.TempDir(), faultfs.NewInjector(nil)
	inj.CrashAt(at)
	run(dir, inj)
	inj.Uncrash()
	crashed := snapTemps(t, dir)
	if len(crashed) != 1 {
		t.Fatalf("the crash left temp files %v, want one", crashed)
	}

	if got := recoverState(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery after the crash differs from the clean run's")
	}
	if got := snapTemps(t, dir); !reflect.DeepEqual(got, crashed) {
		t.Fatalf("a fresh temp file was removed: %v left of %v", got, crashed)
	}

	ageFiles(t, crashed...)
	fresh := filepath.Join(dir, ".snap-999.tmp")
	if err := os.WriteFile(fresh, []byte("another process's write"), 0o600); err != nil {
		t.Fatal(err)
	}
	if got := recoverState(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery after removing the aged temp differs from the clean run's")
	}
	if got := snapTemps(t, dir); !reflect.DeepEqual(got, []string{fresh}) {
		t.Fatalf("temp files after the reopen: %v, want only %s", got, fresh)
	}

	// A successful snapshot write clears leftovers that aged since the open.
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ageFiles(t, fresh)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapTemps(t, dir); len(got) != 0 {
		t.Fatalf("temp files after a compaction: %v", got)
	}
	if got := recoverState(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery after the compaction differs from the clean run's")
	}
}

// TestStoreCopyFaultTable fails each I/O op class of a seed's sidecar copy
// once with EIO. On the source the copy refuses and the store serialises the
// library instead (a failed close of the verified source changes nothing);
// on the destination it follows the degraded-mode arc of any failed swap
// snapshot — read-only, write probe, and a post-recovery compaction that
// persists the swap, by copying. Either way the swapped epoch recovers.
func TestStoreCopyFaultTable(t *testing.T) {
	const sidecar = "<sidecar>" // stands for the row's sidecar path
	for _, tc := range []struct {
		name string
		op   faultfs.Op
		path string
		want string // "fallback", "copy" or "degrade"
	}{
		{"source open", faultfs.OpOpen, sidecar, "fallback"},
		{"source stat", faultfs.OpStat, sidecar, "fallback"},
		{"source readat", faultfs.OpReadAt, sidecar, "fallback"},
		{"source read", faultfs.OpRead, sidecar, "fallback"},
		{"source close", faultfs.OpClose, sidecar, "copy"},
		{"temp createtemp", faultfs.OpCreateTemp, ".snap-", "degrade"},
		{"temp write", faultfs.OpWrite, ".snap-", "degrade"},
		{"temp sync", faultfs.OpSync, ".snap-", "degrade"},
		{"temp close", faultfs.OpClose, ".snap-", "degrade"},
		{"rename", faultfs.OpRename, "snap-0", "degrade"},
		{"syncdir", faultfs.OpSyncDir, "", "degrade"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, mapped, oracle := seedSidecar(t, 33)
			path := tc.path
			if path == sidecar {
				path = src + SidecarSuffix
			}
			dir, inj := t.TempDir(), faultfs.NewInjector(nil)
			var logs strings.Builder
			opts := probeFast(inj)
			opts.Logger = log.New(&syncWriter{w: &logs}, "", 0)
			s, err := OpenStore(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			seedPreSwap(t, s)

			inj.Fail(faultfs.Rule{Op: tc.op, Path: path, Err: faultfs.EIO, Once: true})
			inj.StartTrace()
			stamped := s.Engine().Swap(mapped)
			trace := inj.Trace()
			hit := false
			for _, site := range trace {
				hit = hit || site.Op == tc.op && strings.Contains(site.Path, path)
			}
			if !hit {
				t.Fatalf("the swap never ran a %s on %q", tc.op, path)
			}
			switch tc.want {
			case "fallback", "copy":
				if err := s.Err(); err != nil {
					t.Fatalf("persisting the swap: %v", err)
				}
				writer := map[string]string{"fallback": "serialise", "copy": "copy"}[tc.want]
				if got := snapshotWriter(t, trace, src+SidecarSuffix); got != writer {
					t.Fatalf("the snapshot was written by %s, want %s", got, writer)
				}
				if refused := strings.Contains(logs.String(), "serialised, not copied"); refused != (tc.want == "fallback") {
					t.Fatalf("store log %q", logs.String())
				}
			case "degrade":
				if err := s.Err(); !errors.Is(err, ErrReadOnly) || !errors.Is(err, faultfs.EIO) {
					t.Fatalf("store error after the failed copy: %v, want ErrReadOnly wrapping EIO", err)
				}
				waitForMode(t, s, StorageHealthy)
			}
			if err := s.Close(); err != nil { // waits for the post-recovery compaction
				t.Fatal(err)
			}
			snap := s.snapPath(stamped.Epoch())
			if err := core.ScrubSnapshotFile(nil, snap); err != nil {
				t.Fatal(err)
			}
			if tc.want != "fallback" {
				if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, expectedCopy(t, stamped)) {
					t.Fatalf("the persisted swap is not the sidecar's copy (err %v)", err)
				}
			}
			if tmps := snapTemps(t, dir); len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
			s2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			assertStoreServes(t, s2, oracle, stamped.Epoch())
		})
	}
}

// syncWriter serialises writes to w: the store logs from its background
// goroutines too.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Write(p)
}

// TestStoreCopyCrashSweep crashes the filesystem at every operation of a
// seed's swap — the sidecar copy, the WAL rotation and the pruning after it —
// and requires recovery to land on exactly the pre-swap or the post-swap
// state. Temp files a crash leaves behind go at the first reopen after they
// pass the age rule.
func TestStoreCopyCrashSweep(t *testing.T) {
	_, mapped, _ := seedSidecar(t, 34)
	// run returns the operations the swap ran.
	run := func(dir string, inj *faultfs.Injector, swap bool) []faultfs.Site {
		s, err := OpenStore(dir, StoreOptions{FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		seedPreSwap(t, s)
		if !swap {
			return nil
		}
		inj.StartTrace()
		s.Engine().Swap(mapped)
		return inj.Trace()
	}
	preDir, postDir := t.TempDir(), t.TempDir()
	run(preDir, faultfs.NewInjector(nil), false)
	sites := run(postDir, faultfs.NewInjector(nil), true)
	pre, post := recoverState(t, preDir), recoverState(t, postDir)
	if post.Epoch != pre.Epoch+1 {
		t.Fatalf("the swap moved the epoch %d -> %d", pre.Epoch, post.Epoch)
	}

	classes := map[faultfs.Op]bool{}
	for _, site := range sites {
		classes[site.Op] = true
	}
	for _, op := range []faultfs.Op{faultfs.OpOpen, faultfs.OpStat, faultfs.OpReadAt, faultfs.OpRead,
		faultfs.OpCreateTemp, faultfs.OpWrite, faultfs.OpSync, faultfs.OpClose, faultfs.OpRename, faultfs.OpSyncDir} {
		if !classes[op] {
			t.Fatalf("the swap ran no %s", op)
		}
	}
	leftovers := 0
	for _, site := range sites {
		dir, inj := t.TempDir(), faultfs.NewInjector(nil)
		inj.CrashAt(site.Index)
		run(dir, inj, true)
		inj.Uncrash()
		got := recoverState(t, dir)
		if !reflect.DeepEqual(got, pre) && !reflect.DeepEqual(got, post) {
			t.Fatalf("crash at %s: recovered epoch %d, neither the pre-swap %d nor the post-swap %d state",
				site, got.Epoch, pre.Epoch, post.Epoch)
		}
		if tmps := snapTemps(t, dir); len(tmps) > 0 {
			leftovers++
			ageFiles(t, tmps...)
			if again := recoverState(t, dir); !reflect.DeepEqual(again, got) {
				t.Fatalf("crash at %s: a second recovery differs from the first", site)
			}
			if tmps := snapTemps(t, dir); len(tmps) != 0 {
				t.Fatalf("crash at %s: aged temp files survived a reopen: %v", site, tmps)
			}
		}
	}
	if leftovers == 0 {
		t.Fatal("no crash left a temp file behind; the age rule went untested")
	}
	t.Logf("%d crash sites, %d left a temp file", len(sites), leftovers)
}

// TestStoreLinkCrashSweep crashes the filesystem at every operation of a
// fresh seed — the sidecar's checks and scrub, the link, its sync and rename,
// the directory sync and the WAL rotation after them — and requires recovery
// to land on exactly the pre-seed or the post-seed state. A crash that leaves
// the link's temp name behind loses it at the first reopen after it passes
// the age rule, and the sidecar stays whole.
func TestStoreLinkCrashSweep(t *testing.T) {
	src, mapped, _ := seedSidecar(t, 35)
	sidecar, err := os.ReadFile(src + SidecarSuffix)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(src + SidecarSuffix)
	if err != nil {
		t.Fatal(err)
	}
	// run returns the operations the seed ran.
	run := func(dir string, inj *faultfs.Injector, seed bool) []faultfs.Site {
		s, err := OpenStore(dir, StoreOptions{FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		appendStoreUsers(t, s)
		if !seed {
			return nil
		}
		inj.StartTrace()
		s.Engine().Swap(mapped)
		return inj.Trace()
	}
	preDir, postDir := t.TempDir(), t.TempDir()
	run(preDir, faultfs.NewInjector(nil), false)
	sites := run(postDir, faultfs.NewInjector(nil), true)
	pre, post := recoverState(t, preDir), recoverState(t, postDir)
	if pre.Epoch != 0 || post.Epoch != 1 {
		t.Fatalf("the seed moved the epoch %d -> %d, want 0 -> 1", pre.Epoch, post.Epoch)
	}

	classes := map[faultfs.Op]bool{}
	for _, site := range sites {
		classes[site.Op] = true
	}
	for _, op := range []faultfs.Op{faultfs.OpOpen, faultfs.OpStat, faultfs.OpReadAt, faultfs.OpRead,
		faultfs.OpLink, faultfs.OpSync, faultfs.OpClose, faultfs.OpRename, faultfs.OpSyncDir, faultfs.OpOpenFile, faultfs.OpWriteAt} {
		if !classes[op] {
			t.Fatalf("the seed ran no %s", op)
		}
	}
	if classes[faultfs.OpCreateTemp] {
		t.Fatal("the seed created a temp file: it did not link")
	}
	leftovers := 0
	for _, site := range sites {
		dir, inj := t.TempDir(), faultfs.NewInjector(nil)
		inj.CrashAt(site.Index)
		run(dir, inj, true)
		inj.Uncrash()
		got := recoverState(t, dir)
		if !reflect.DeepEqual(got, pre) && !reflect.DeepEqual(got, post) {
			t.Fatalf("crash at %s: recovered epoch %d, neither the pre-seed %d nor the post-seed %d state",
				site, got.Epoch, pre.Epoch, post.Epoch)
		}
		if tmps := snapTemps(t, dir); len(tmps) > 0 {
			leftovers++
			ageFiles(t, tmps...)
			if again := recoverState(t, dir); !reflect.DeepEqual(again, got) {
				t.Fatalf("crash at %s: a second recovery differs from the first", site)
			}
			if tmps := snapTemps(t, dir); len(tmps) != 0 {
				t.Fatalf("crash at %s: aged temp files survived a reopen: %v", site, tmps)
			}
			// The temp name was the sidecar's file: give the sidecar its
			// times back, or every later link would be born aged.
			if err := os.Chtimes(src+SidecarSuffix, fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
		}
		if b, err := os.ReadFile(src + SidecarSuffix); err != nil || !bytes.Equal(b, sidecar) {
			t.Fatalf("crash at %s: the sidecar changed (err %v)", site, err)
		}
	}
	if leftovers == 0 {
		t.Fatal("no crash left a temp name behind; the age rule went untested")
	}
	t.Logf("%d crash sites, %d left a temp name", len(sites), leftovers)
}
