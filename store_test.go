package goalrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func storeIngest(t *testing.T, e *Engine, start, n int) {
	t.Helper()
	impls := make([]Implementation, n)
	for i := range impls {
		id := start + i
		impls[i] = Implementation{
			Goal: fmt.Sprintf("goal-%d", id%17),
			Actions: []string{
				fmt.Sprintf("act-%d", id%29),
				fmt.Sprintf("act-%d", (id*7)%29),
				fmt.Sprintf("act-%d", (id*13)%41),
			},
		}
	}
	if added, err := e.AddImplementations(impls); err != nil || added != n {
		t.Fatalf("AddImplementations: added %d, err %v", added, err)
	}
}

func storeRankings(t *testing.T, e *Engine) map[Strategy][]Recommendation {
	t.Helper()
	activity := []string{"act-1", "act-7", "act-13"}
	out := make(map[Strategy][]Recommendation)
	for _, s := range []Strategy{FocusCompleteness, FocusCloseness, Breadth, BestMatch} {
		rec, err := e.Recommender(s)
		if err != nil {
			t.Fatalf("Recommender(%s): %v", s, err)
		}
		out[s] = rec.Recommend(activity, 10)
	}
	return out
}

// A store over an empty directory must recover purely from the WAL: ingest,
// close, reopen, and the epoch and every strategy's rankings survive.
func TestStoreRestartReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Engine()
	if e.Len() != 0 {
		t.Fatalf("fresh store has %d implementations", e.Len())
	}
	storeIngest(t, e, 0, 40)
	storeIngest(t, e, 40, 25)
	storeIngest(t, e, 65, 5)
	wantEpoch, wantLen := e.Epoch(), e.Len()
	want := storeRankings(t, e)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	e2 := s2.Engine()
	if e2.Epoch() != wantEpoch {
		t.Fatalf("epoch after restart = %d, want %d", e2.Epoch(), wantEpoch)
	}
	if e2.Len() != wantLen {
		t.Fatalf("len after restart = %d, want %d", e2.Len(), wantLen)
	}
	if got := storeRankings(t, e2); !reflect.DeepEqual(got, want) {
		t.Fatal("rankings changed across restart")
	}
	// The recovered engine must keep ingesting and journaling.
	storeIngest(t, e2, 70, 3)
	if e2.Epoch() != wantEpoch+1 {
		t.Fatalf("epoch after post-restart ingest = %d, want %d", e2.Epoch(), wantEpoch+1)
	}
}

// Compaction folds the WAL into a snapshot; recovery then starts from the
// mapped snapshot and replays only the batches ingested after it.
func TestStoreCompaction(t *testing.T) {
	// Snapshots are always written with raw (uncompressed) postings.
	t.Run("compress=false", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e := s.Engine()
		storeIngest(t, e, 0, 60)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		snaps, err := snapshotEpochs(nil, dir)
		if err != nil || len(snaps) != 1 || snaps[0] != e.Epoch() {
			t.Fatalf("snapshots after compaction: %v (err %v), want [%d]", snaps, err, e.Epoch())
		}
		if fi, err := os.Stat(filepath.Join(dir, "ingest.wal")); err != nil || fi.Size() != 8 {
			t.Fatalf("WAL not reset after compaction: size %v, err %v", fi, err)
		}
		// Post-compaction batches land in the fresh WAL and replay on top.
		storeIngest(t, e, 60, 15)
		wantEpoch := e.Epoch()
		want := storeRankings(t, e)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if s2.Engine().Epoch() != wantEpoch {
			t.Fatalf("epoch = %d, want %d", s2.Engine().Epoch(), wantEpoch)
		}
		if got := storeRankings(t, s2.Engine()); !reflect.DeepEqual(got, want) {
			t.Fatal("rankings changed across compaction + restart")
		}
	})
}

// A torn final record loses only the unacknowledged batch; the store reopens
// on the intact prefix and keeps appending.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 0, 30)
	midEpoch, midLen := s.Engine().Epoch(), s.Engine().Len()
	storeIngest(t, s.Engine(), 30, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "ingest.wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Engine().Epoch() != midEpoch || s2.Engine().Len() != midLen {
		t.Fatalf("after torn tail: epoch %d len %d, want %d/%d",
			s2.Engine().Epoch(), s2.Engine().Len(), midEpoch, midLen)
	}
	storeIngest(t, s2.Engine(), 40, 5)
	if s2.Engine().Epoch() != midEpoch+1 {
		t.Fatalf("epoch after reappend = %d", s2.Engine().Epoch())
	}
}

// Engine.Swap supersedes the log, so the store snapshots the swapped library
// immediately and recovery adopts it.
func TestStoreSwapPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 0, 10)

	b := NewBuilder()
	for i := 0; i < 20; i++ {
		if err := b.AddImplementation(fmt.Sprintf("sw-goal-%d", i%5),
			fmt.Sprintf("sw-act-%d", i%7), fmt.Sprintf("sw-act-%d", (i+3)%7)); err != nil {
			t.Fatal(err)
		}
	}
	s.Engine().Swap(b.Build())
	if err := s.Err(); err != nil {
		t.Fatalf("swap persist failed: %v", err)
	}
	wantEpoch, wantLen := s.Engine().Epoch(), s.Engine().Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Engine().Epoch() != wantEpoch || s2.Engine().Len() != wantLen {
		t.Fatalf("swap lost: epoch %d len %d, want %d/%d",
			s2.Engine().Epoch(), s2.Engine().Len(), wantEpoch, wantLen)
	}
	if got := s2.Engine().Snapshot().Goals(); len(got) != 5 {
		t.Fatalf("swapped goal space not recovered: %v", got)
	}
}

// A journal append failure must reject the ingest (nothing acknowledged that
// is not logged), leave the published library untouched, and latch the store.
func TestStoreJournalFailureIsStickyAndAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := s.Engine()
	storeIngest(t, e, 0, 10)
	epoch, n := e.Epoch(), e.Len()

	// Yank the log out from under the writer.
	s.mu.Lock()
	s.w.Close()
	s.mu.Unlock()

	_, err = e.AddImplementations([]Implementation{{Goal: "g", Actions: []string{"a"}}})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("ingest after WAL failure: %v, want ErrJournal", err)
	}
	if e.Epoch() != epoch || e.Len() != n {
		t.Fatal("failed ingest mutated the published library")
	}
	if s.Err() == nil {
		t.Fatal("store did not latch the failure")
	}
	if _, err := e.AddImplementations([]Implementation{{Goal: "g", Actions: []string{"a"}}}); !errors.Is(err, ErrJournal) {
		t.Fatalf("second ingest: %v, want sticky ErrJournal", err)
	}
}

// Background compaction keeps at most keepSnapshots generations.
func TestStorePrunesOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		storeIngest(t, s.Engine(), i*10, 10)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := snapshotEpochs(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshots (%v), want 2", len(snaps), snaps)
	}
	if snaps[len(snaps)-1] != s.Engine().Epoch() {
		t.Fatalf("newest snapshot %d != engine epoch %d", snaps[len(snaps)-1], s.Engine().Epoch())
	}
}

// The WAL-size trigger fires background compaction without any explicit call.
func TestStoreAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{CompactAtWALBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		storeIngest(t, s.Engine(), i*10, 10)
	}
	if err := s.Close(); err != nil { // Close waits for no one; compaction may or may not have landed
		t.Fatal(err)
	}
	snaps, err := snapshotEpochs(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshot written by background compaction")
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Engine().Len() != 200 {
		t.Fatalf("recovered %d implementations, want 200", s2.Engine().Len())
	}
}

// setCompressedFlag stamps the snapshot at path with the header flag of the
// retired compressed posting encoding and reseals both checksums, so the
// file is exactly what that encoding's writer would have left: sound bytes
// in a format this release no longer reads.
func setCompressedFlag(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], binary.LittleEndian.Uint32(data[8:])|1)
	tableEnd := 64 + 24*int(binary.LittleEndian.Uint32(data[12:]))
	crc := crc32.Update(crc32.ChecksumIEEE(data[:60]), crc32.IEEETable, data[64:tableEnd])
	binary.LittleEndian.PutUint32(data[60:], crc)
	footer := len(data) - 8
	binary.LittleEndian.PutUint32(data[footer+4:], crc32.ChecksumIEEE(data[:footer]))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A snapshot in the retired compressed encoding fails the open, naming the
// file and the encoding. It is sound, so it is not quarantined: the operator
// rebuilds it with an older release or reseeds the store.
func TestStoreRefusesCompressedSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	storeIngest(t, s.Engine(), 0, 40)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	path := s.snapPath(s.Engine().Epoch())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	setCompressedFlag(t, path)

	_, err = OpenStore(dir, StoreOptions{})
	if !errors.Is(err, ErrCompressedPostings) || !strings.Contains(err.Error(), filepath.Base(path)) {
		t.Fatalf("OpenStore: error %v, want ErrCompressedPostings naming %s", err, filepath.Base(path))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".quarantine") {
			t.Fatalf("refused snapshot was quarantined as %s", ent.Name())
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("refused snapshot moved: %v", err)
	}
}

// A snap-<n>.gsnpd left by a release that wrote snapshot diffs is ignored
// like any unknown file. Recovery is lossless: those releases pinned the WAL
// floor at each diff's full base, so the newest full snapshot plus the WAL
// reach the diff's epoch with bit-identical rankings.
func TestStoreIgnoresStraySnapshotDiff(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Engine()
	storeIngest(t, e, 0, 40)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	storeIngest(t, e, 40, 7)
	storeIngest(t, e, 47, 5)
	wantEpoch := e.Epoch()
	want := storeRankings(t, e)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, fmt.Sprintf("snap-%016d.gsnpd", wantEpoch))
	if err := os.WriteFile(stray, []byte("GSNP\x02\x00\x00\x00 a diff over the full snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Engine().Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	if got := storeRankings(t, s2.Engine()); !reflect.DeepEqual(got, want) {
		t.Fatal("rankings changed across recovery past a stray snapshot diff")
	}
	if err := s2.Scrub(); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if q := s2.Status().Quarantined; len(q) != 0 {
		t.Fatalf("quarantined %v", q)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray diff touched: %v", err)
	}
}
