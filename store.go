package goalrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/faultfs"
	"goalrec/internal/wal"
)

// Store gives an Engine a durable home directory: memory-mapped snapshots
// for instant cold starts plus a write-ahead log for everything ingested
// since the last snapshot.
//
//	store, err := goalrec.OpenStore(dir, goalrec.StoreOptions{})
//	...
//	engine := store.Engine()
//
// The directory holds snap-<epoch>.gsnp files (the core snapshot format,
// opened zero-copy via mmap) and one ingest.wal. Opening a store maps the
// newest loadable snapshot, replays the WAL records its epoch does not cover
// — reproducing id assignment by interning names in log order — truncates
// any torn tail, and resumes the lineage at the exact epoch the previous
// process last published.
//
// From then on the store rides the engine's write path: every ingest batch
// is appended (length-prefixed, checksummed) to the WAL before it is
// applied, so a crash between append and publish replays the batch on
// restart instead of losing it. A failed append rejects the ingest with
// ErrJournal — no acknowledged write is ever absent from the log. Transient
// append errors (the kernel's "try again" family) retry in place; a
// persistent failure flips the store into degraded read-only mode: further
// writes are rejected with ErrReadOnly while reads keep serving, and a
// background write probe recovers the store automatically once the log is
// writable again. Once the WAL outgrows CompactAtWALBytes, a background
// compaction writes the current epoch as a fresh snapshot and drops the log
// records older snapshots no longer need; Engine.Swap snapshots immediately,
// since a swap supersedes the whole log.
type Store struct {
	dir    string
	opts   StoreOptions
	fs     faultfs.FS
	engine *Engine
	users  *UserStore

	mu       sync.Mutex // serializes WAL appends and rotation
	w        *wal.Writer
	walEpoch uint64 // highest epoch appended to the WAL
	snapLow  uint64 // epoch covered by the newest snapshot on disk
	walFloor int64  // WAL size right after the last reset (carried user records)

	// stMu guards the degraded-mode state machine; it is never held across
	// I/O so status queries stay wait-free in practice.
	stMu       sync.Mutex
	readOnly   bool
	lastErr    error
	quar       []string // base names of quarantined snapshot files
	probing    bool
	healStreak int

	degradations  atomic.Uint64
	recoveries    atomic.Uint64
	pruneFailures atomic.Uint64
	scrubPasses   atomic.Uint64
	scrubFails    atomic.Uint64
	walTears      atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
	bgWG      sync.WaitGroup // probe + scrub loops

	compacting atomic.Bool
	compactWG  sync.WaitGroup

	// unmaps releases the snapshot mappings opened over the store's
	// lifetime. Mappings stay live until Close: engine snapshots handed to
	// readers may reference them indefinitely.
	unmapMu sync.Mutex
	unmaps  []func() error
}

// ErrReadOnly marks a write rejected because the store is in degraded
// read-only mode after a persistent storage failure. Reads are unaffected;
// the store probes the log in the background and lifts the mode on its own
// once writes succeed again.
var ErrReadOnly = errors.New("goalrec: store is read-only (storage degraded)")

// Storage modes, as reported by StorageStatus.Mode.
const (
	StorageHealthy  = "healthy"
	StorageReadOnly = "read_only"
)

// StorageStatus is a point-in-time view of the store's persistence health,
// surfaced through /readyz and /v1/metrics.
type StorageStatus struct {
	Mode          string   // StorageHealthy or StorageReadOnly
	LastError     string   // most recent storage error; "" while healthy
	Quarantined   []string // base names of snapshots quarantined so far
	PruneFailures uint64   // failed snapshot prunes (retried next compaction)
	Degradations  uint64   // times the store entered read-only mode
	Recoveries    uint64   // times probation ended in automatic recovery
	ScrubPasses   uint64   // clean full scrubs
	ScrubFailures uint64   // corrupt artifacts scrubs have found
	WALTears      uint64   // mid-log WAL corruption events
}

// StoreOptions configures OpenStore. The zero value is production-ready.
type StoreOptions struct {
	// SyncWAL fsyncs every WAL append (durability against power loss). Off,
	// appends reach the page cache synchronously and disk asynchronously —
	// durable against process crashes, the common failure.
	SyncWAL bool
	// CompactAtWALBytes is the WAL size that triggers background compaction
	// (snapshot + log reset). <= 0 selects 4 MiB.
	CompactAtWALBytes int64
	// KeepSnapshots is how many generations of snapshot files to retain
	// (the newest is always kept). <= 0 selects 2.
	KeepSnapshots int
	// Logger receives compaction and recovery notes; nil disables logging.
	Logger *log.Logger
	// Users configures the per-user activity store the Store journals and
	// recovers alongside the library (capacities; zero values are defaults).
	Users UserStoreOptions
	// FS is the filesystem the store runs on; nil selects the real one.
	// Tests inject faults through it (internal/faultfs).
	FS faultfs.FS
	// ScrubInterval enables the background scrubber: every interval the
	// store re-verifies each snapshot's whole-file checksum and the WAL's
	// frame CRCs, quarantining corrupt snapshots. <= 0 disables the periodic
	// loop; the open-time scrub always runs.
	ScrubInterval time.Duration
	// ProbeInterval is the cadence of the degraded store's write probe.
	// <= 0 selects 1s.
	ProbeInterval time.Duration
	// RecoverAfter is how many consecutive clean write probes end probation
	// and restore writes. <= 0 selects 3.
	RecoverAfter int
}

const defaultCompactAtWALBytes = 4 << 20

// Transient append errors retry in place before the store degrades.
const (
	transientRetries = 3
	transientBackoff = time.Millisecond
)

// isTransientIOErr reports whether err is worth retrying in place: the
// kernel-level "try again" family, not a condition — a full disk, a dead
// device — that an immediate retry cannot fix.
func isTransientIOErr(err error) bool {
	return errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}

func (o StoreOptions) compactAt() int64 {
	if o.CompactAtWALBytes <= 0 {
		return defaultCompactAtWALBytes
	}
	return o.CompactAtWALBytes
}

func (o StoreOptions) keep() int {
	if o.KeepSnapshots <= 0 {
		return 2
	}
	return o.KeepSnapshots
}

func (o StoreOptions) probeEvery() time.Duration {
	if o.ProbeInterval <= 0 {
		return time.Second
	}
	return o.ProbeInterval
}

func (o StoreOptions) recoverAfter() int {
	if o.RecoverAfter <= 0 {
		return 3
	}
	return o.RecoverAfter
}

func (s *Store) logf(format string, args ...interface{}) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf("store: "+format, args...)
	}
}

func (s *Store) walPath() string { return filepath.Join(s.dir, "ingest.wal") }

func (s *Store) snapPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%016d.gsnp", epoch))
}

// snapshotEpochs lists the epochs of the snapshot files present in dir,
// ascending. Names are matched strictly — quarantined files
// (snap-N.gsnp.quarantine), temp files and the snapshot diffs older
// releases wrote (snap-N.gsnpd; their full base plus the WAL reach the same
// epoch) never parse as live snapshots.
func snapshotEpochs(fsys faultfs.FS, dir string) ([]uint64, error) {
	ents, err := faultfs.Or(fsys).ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, ent := range ents {
		name := ent.Name()
		const pre, suf = "snap-", ".gsnp"
		if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
			continue
		}
		mid := name[len(pre) : len(name)-len(suf)]
		if mid == "" {
			continue
		}
		epoch, perr := strconv.ParseUint(mid, 10, 64)
		if perr != nil {
			continue
		}
		out = append(out, epoch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// quarantine renames a corrupt snapshot aside as <name>.quarantine —
// evidence is preserved for forensics, never deleted — so recovery, pruning
// and future scrubs stop considering it.
func (s *Store) quarantine(path string, cause error) {
	qpath := path + ".quarantine"
	if err := s.fs.Rename(path, qpath); err != nil {
		s.logf("quarantining %s: %v", filepath.Base(path), err)
		return
	}
	s.stMu.Lock()
	s.quar = append(s.quar, filepath.Base(qpath))
	s.stMu.Unlock()
	s.logf("quarantined %s: %v", filepath.Base(path), cause)
}

// OpenStore opens (creating if needed) the persistent store at dir and
// recovers its engine: newest loadable snapshot mmap-first, then the WAL
// tail on top. The returned store owns the snapshot mappings and the WAL
// handle; Close it after the engine is no longer serving.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	fsys := faultfs.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, fs: fsys, closed: make(chan struct{})}

	epochs, err := snapshotEpochs(fsys, dir)
	if err != nil {
		return nil, err
	}
	// Newest verifiable snapshot wins. Every candidate is scrubbed in full
	// before adoption — the open-time scrub — and a corrupt one (torn writes
	// are impossible, snapshots rename into place, but disks rot) is
	// quarantined rather than deleted, then recovery falls back a generation.
	// The WAL retains every batch past the oldest retained snapshot, so the
	// fallback replays a longer tail and lands on the same state.
	for i := len(epochs) - 1; i >= 0; i-- {
		path := s.snapPath(epochs[i])
		if err := core.ScrubSnapshotFile(fsys, path); err != nil {
			// Quarantine only proven corruption. An I/O error reading the file
			// says nothing about the bytes at rest — renaming a possibly-healthy
			// newest generation aside on a flaky read would itself lose data, so
			// that fails the open instead.
			if !errors.Is(err, core.ErrCorruptSnapshot) {
				return nil, fmt.Errorf("goalrec: scrubbing snapshot %s: %w", filepath.Base(path), err)
			}
			s.scrubFails.Add(1)
			s.quarantine(path, err)
			s.logf("snapshot %s failed its open-time scrub: %v (falling back)", filepath.Base(path), err)
			continue
		}
		snap, err := core.OpenSnapshotFS(fsys, path)
		if err != nil {
			// The scrub just proved the bytes sound, so this is environmental
			// (open/stat/mmap) or a sound file in an encoding this release no
			// longer reads (core.ErrCompressedPostings) — not corruption.
			return nil, fmt.Errorf("goalrec: mapping snapshot %s: %w", filepath.Base(path), err)
		}
		vocab := snap.Vocabulary()
		if vocab == nil {
			_ = snap.Close()
			s.logf("snapshot %s has no vocabulary (falling back)", filepath.Base(path))
			continue
		}
		s.engine = newEngineAdopting(&Library{lib: snap.Library(), vocab: vocab})
		s.snapLow = snap.Library().Epoch()
		s.unmaps = append(s.unmaps, snap.Close)
		break
	}
	if s.engine == nil {
		s.engine = NewEngine()
	}
	s.users = NewUserStore(s.engine, opts.Users)

	// Replay the WAL tail. Ingest batches apply only beyond the adopted
	// snapshot's epoch; user records always apply (snapshots never cover user
	// state) and replay in log order, so restart reproduces every history
	// bit-identically — including append/delete interleavings.
	base := s.engine.Epoch()
	replayed := 0
	validSize, err := wal.ReplayFS(fsys, s.walPath(), func(payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("goalrec: empty WAL record after epoch %d", s.engine.Epoch())
		}
		switch payload[0] {
		case walKindBatch:
			epoch, impls, err := decodeBatch(payload)
			if err != nil {
				return fmt.Errorf("goalrec: WAL record after epoch %d: %w", s.engine.Epoch(), err)
			}
			s.walEpoch = epoch
			if epoch <= base {
				return nil // already covered by the snapshot
			}
			if _, err := s.engine.AddImplementations(impls); err != nil {
				return fmt.Errorf("goalrec: replaying WAL batch at epoch %d: %w", epoch, err)
			}
			return s.engine.restoreEpoch(epoch)
		case walKindUserAppend:
			id, names, err := decodeUserAppend(payload)
			if err != nil {
				return fmt.Errorf("goalrec: WAL user-append record: %w", err)
			}
			if err := s.users.applyReplayAppend(id, names); err != nil {
				// Capacity may have been lowered since the record was written;
				// dropping the user beats refusing to open the store.
				s.logf("replaying user-append for %q: %v (skipped)", id, err)
			}
			return nil
		case walKindUserDelete:
			id, err := decodeUserDelete(payload)
			if err != nil {
				return fmt.Errorf("goalrec: WAL user-delete record: %w", err)
			}
			s.users.applyReplayDelete(id)
			return nil
		default:
			return fmt.Errorf("goalrec: unknown WAL record kind %d", payload[0])
		}
	})
	if err != nil {
		s.closeMaps()
		return nil, err
	}
	if e := s.engine.Epoch(); e > base {
		replayed = int(e - base)
	}
	if replayed > 0 {
		s.logf("replayed %d WAL batches on top of epoch %d, resuming at epoch %d", replayed, base, s.engine.Epoch())
	}

	w, err := wal.OpenWriterFS(fsys, s.walPath(), validSize, opts.SyncWAL)
	if err != nil {
		s.closeMaps()
		return nil, err
	}
	s.w = w
	s.engine.setJournal(s)
	s.users.setJournal(s)
	if opts.ScrubInterval > 0 {
		s.bgWG.Add(1)
		go s.scrubLoop()
	}
	return s, nil
}

// Engine returns the recovered engine. Its ingests and swaps are journaled
// by this store for as long as the store stays open.
func (s *Store) Engine() *Engine { return s.engine }

// Users returns the WAL-backed per-user activity store recovered alongside
// the engine. Appends and deletes are journaled for as long as the store
// stays open; restart replays them so histories come back bit-identically.
func (s *Store) Users() *UserStore { return s.users }

// Err returns the storage error the store is degraded on, or nil while it is
// healthy. Unlike the pre-degraded-mode behavior this is not sticky: the
// background write probe clears it once the log proves writable again.
func (s *Store) Err() error {
	s.stMu.Lock()
	defer s.stMu.Unlock()
	if s.readOnly {
		return s.readOnlyErrLocked()
	}
	return nil
}

// Status reports the store's persistence health for /readyz and /v1/metrics.
func (s *Store) Status() StorageStatus {
	s.stMu.Lock()
	st := StorageStatus{
		Mode:        StorageHealthy,
		Quarantined: append([]string(nil), s.quar...),
	}
	if s.readOnly {
		st.Mode = StorageReadOnly
		if s.lastErr != nil {
			st.LastError = s.lastErr.Error()
		}
	}
	s.stMu.Unlock()
	st.PruneFailures = s.pruneFailures.Load()
	st.Degradations = s.degradations.Load()
	st.Recoveries = s.recoveries.Load()
	st.ScrubPasses = s.scrubPasses.Load()
	st.ScrubFailures = s.scrubFails.Load()
	st.WALTears = s.walTears.Load()
	return st
}

func (s *Store) readOnlyErrLocked() error {
	if s.lastErr != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, s.lastErr)
	}
	return ErrReadOnly
}

// degrade flips the store into read-only mode on a persistent storage error
// and starts the recovery probe. It returns the error writers surface, which
// wraps ErrReadOnly.
func (s *Store) degrade(err error) error {
	s.stMu.Lock()
	defer s.stMu.Unlock()
	if !s.readOnly {
		s.readOnly = true
		s.degradations.Add(1)
		s.logf("storage degraded, serving read-only: %v", err)
	}
	s.lastErr = err
	s.healStreak = 0
	if !s.probing {
		s.probing = true
		s.bgWG.Add(1)
		go s.probeLoop()
	}
	return fmt.Errorf("%w: %w", ErrReadOnly, err)
}

// probeLoop is the degraded store's probation: every ProbeInterval it runs a
// write probe against the log, and RecoverAfter consecutive clean probes end
// the read-only mode. It exits on recovery or store close.
func (s *Store) probeLoop() {
	defer s.bgWG.Done()
	t := time.NewTicker(s.opts.probeEvery())
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
		}
		if s.probeOnce() {
			return
		}
	}
}

// probeOnce runs one write probe — wal.Writer.Recover, a truncate-to-acked
// plus fsync, which both tests the device and discards anything a failed
// append tore — and reports whether probation just ended in recovery.
func (s *Store) probeOnce() bool {
	s.mu.Lock()
	err := s.w.Recover()
	if err != nil && errors.Is(err, os.ErrClosed) {
		// The writer lost its handle — a log rotation closed the old log and
		// could not open its successor. The sealed log is intact on disk;
		// reattach at its replayed size and probe that instead.
		if size, rerr := wal.ReplayFS(s.fs, s.walPath(), func([]byte) error { return nil }); rerr == nil {
			if w, oerr := wal.OpenWriterFS(s.fs, s.walPath(), size, s.opts.SyncWAL); oerr == nil {
				s.w = w
				err = s.w.Recover()
			}
		}
	}
	s.mu.Unlock()
	s.stMu.Lock()
	if err != nil {
		s.healStreak = 0
		s.lastErr = err
		s.stMu.Unlock()
		return false
	}
	s.healStreak++
	if s.healStreak < s.opts.recoverAfter() {
		s.stMu.Unlock()
		return false
	}
	s.readOnly = false
	s.lastErr = nil
	s.probing = false
	s.recoveries.Add(1)
	s.stMu.Unlock()
	s.logf("storage recovered after %d clean write probes; writes resume", s.opts.recoverAfter())
	// A compaction right after recovery re-persists everything the degraded
	// window could not — most importantly a swap whose snapshot write failed,
	// which has no WAL record to replay — and rewrites the log cleanly.
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		if err := s.Compact(); err != nil {
			s.logf("post-recovery compaction: %v", err)
		}
	}()
	return true
}

// appendLocked runs one WAL append under s.mu with the store's fault policy:
// transient errors retry in place with a short backoff; an error that
// survives the retries is persistent and degrades the store.
func (s *Store) appendLocked(payload []byte, what string) error {
	var err error
	for attempt := 0; attempt <= transientRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(transientBackoff << (attempt - 1))
		}
		// A failed append never advances the writer, so a retry overwrites
		// whatever torn prefix the previous attempt left.
		if err = s.w.Append(payload); err == nil {
			return nil
		}
		if !isTransientIOErr(err) {
			break
		}
	}
	return s.degrade(fmt.Errorf("%s: %w", what, err))
}

// logBatch implements engineJournal: append-before-apply under the engine's
// writer lock.
func (s *Store) logBatch(epoch uint64, impls []Implementation) error {
	if err := s.Err(); err != nil {
		return err
	}
	payload := encodeBatch(epoch, impls)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(payload, fmt.Sprintf("appending %d implementations at epoch %d", len(impls), epoch)); err != nil {
		return err
	}
	s.walEpoch = epoch
	s.maybeCompactLocked()
	return nil
}

// maybeCompactLocked kicks a background compaction once the WAL grows
// compactAt bytes past its floor. The floor is the size right after the last
// reset — compaction carries every user record forward, so measuring growth
// from zero would re-trigger immediately on a user-heavy log.
func (s *Store) maybeCompactLocked() {
	if s.w.Size() >= s.walFloor+s.opts.compactAt() && s.compacting.CompareAndSwap(false, true) {
		s.compactWG.Add(1)
		go func() {
			defer s.compactWG.Done()
			s.compact()
		}()
	}
}

// logUserAppend implements userJournal: append-before-apply under the user's
// lock, exactly like ingest batches under the engine's writer lock.
func (s *Store) logUserAppend(id string, names []string) error {
	return s.logUserRecord(encodeUserAppend(id, names))
}

// logUserDelete implements userJournal.
func (s *Store) logUserDelete(id string) error {
	return s.logUserRecord(encodeUserDelete(id))
}

func (s *Store) logUserRecord(payload []byte) error {
	if err := s.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(payload, "appending user record"); err != nil {
		return err
	}
	s.maybeCompactLocked()
	return nil
}

// logSwap implements engineJournal: a swap makes the whole log stale, so the
// new epoch is persisted as a snapshot right away. A swap has no WAL record,
// so a failed snapshot write degrades the store — the post-recovery
// compaction then persists the swapped state.
func (s *Store) logSwap(lib *Library) {
	if err := s.snapshotAndReset(lib); err != nil {
		s.logf("persisting swapped epoch %d failed: %v", lib.Epoch(), err)
		_ = s.degrade(fmt.Errorf("persisting swapped epoch %d: %w", lib.Epoch(), err))
	}
}

// Compact synchronously persists the engine's current epoch as a snapshot
// and drops the WAL records it covers. Periodic compaction runs this in the
// background once the WAL outgrows its threshold; tests and shutdown hooks
// may call it directly.
func (s *Store) Compact() error {
	return s.snapshotAndReset(s.engine.Snapshot())
}

func (s *Store) compact() {
	defer s.compacting.Store(false)
	lib := s.engine.Snapshot()
	if err := s.snapshotAndReset(lib); err != nil {
		// Compaction failure is not fatal: the WAL still holds everything.
		s.logf("compaction at epoch %d failed: %v", lib.Epoch(), err)
		return
	}
	s.logf("compacted WAL into snapshot at epoch %d", lib.Epoch())
}

// snapshotAndReset writes lib as a snapshot file, then truncates the WAL
// back to the records the retained snapshots cannot cover. Batches are kept
// all the way back to the oldest snapshot generation that survives pruning —
// not just past the new snapshot's epoch — so if a scrub later quarantines
// the newest snapshot, recovery falls back a generation and replays the
// longer tail to the exact same state. User records are always carried:
// snapshots hold only the library.
func (s *Store) snapshotAndReset(lib *Library) error {
	epoch := lib.Epoch()
	if epoch == 0 {
		// Nothing has ever been published. An epoch-0 snapshot is worse than
		// none: adopting one on restart would stamp the lineage at epoch 1
		// (Swap publishes, and epochs never move backwards), silently
		// desynchronizing the epoch from the number of ingested batches.
		return nil
	}
	// The expensive write happens outside s.mu so ingests keep flowing; the
	// file renames into place atomically.
	if err := core.WriteSnapshotFileFS(s.fs, s.snapPath(epoch), lib.lib, lib.vocab, core.SnapshotOptions{}); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.snapLow {
		return nil // a newer snapshot already landed; keep its log
	}
	// The WAL retention floor: the oldest of the snapshot generations
	// pruning retains, which is the oldest epoch they restore without the log.
	floor := epoch
	if epochs, err := snapshotEpochs(s.fs, s.dir); err == nil {
		kept := 0
		for i := len(epochs) - 1; i >= 0 && kept < s.opts.keep(); i-- {
			if epochs[i] <= epoch {
				kept++
				floor = min(floor, epochs[i])
			}
		}
	}
	var tail [][]byte
	if _, err := wal.ReplayFS(s.fs, s.walPath(), func(payload []byte) error {
		if len(payload) == 0 {
			return nil
		}
		switch payload[0] {
		case walKindBatch:
			if e, _, err := decodeBatch(payload); err == nil && e > floor {
				tail = append(tail, append([]byte(nil), payload...))
			}
		case walKindUserAppend, walKindUserDelete:
			tail = append(tail, append([]byte(nil), payload...))
		}
		return nil
	}); err != nil {
		return err
	}
	// Rotate the log through a sidecar: the successor is built in full as
	// ingest.wal.next and renamed over the live log only once it is sealed.
	// A fault — or a crash — anywhere while carrying the tail leaves the old
	// log untouched, so a failed compaction never costs an acked record.
	next := s.walPath() + ".next"
	nw, err := wal.OpenWriterFS(s.fs, next, 0, s.opts.SyncWAL)
	if err != nil {
		return err
	}
	for _, payload := range tail {
		if err := nw.Append(payload); err != nil {
			_ = nw.Close()
			_ = s.fs.Remove(next)
			return fmt.Errorf("carrying WAL tail past epoch %d: %w", floor, err)
		}
	}
	if err := nw.Close(); err != nil {
		_ = s.fs.Remove(next)
		return err
	}
	nwSize := nw.Size()
	// Commit point. The old log's sync state no longer matters — every record
	// that must survive is sealed in the successor — so its close error is
	// logged, not fatal.
	if err := s.w.Close(); err != nil {
		s.logf("closing WAL before rotation: %v", err)
	}
	if err := s.fs.Rename(next, s.walPath()); err != nil {
		_ = s.fs.Remove(next)
		// The old log is still in place; reattach to it or degrade.
		ow, oerr := wal.OpenWriterFS(s.fs, s.walPath(), s.w.Size(), s.opts.SyncWAL)
		if oerr != nil {
			return s.degrade(fmt.Errorf("reopening WAL after failed rotation: %w", oerr))
		}
		s.w = ow
		return err
	}
	w, err := wal.OpenWriterFS(s.fs, s.walPath(), nwSize, s.opts.SyncWAL)
	if err != nil {
		// The rotated log is sealed on disk but unappendable — recovery will
		// reopen it; until then no new write may be acked.
		return s.degrade(fmt.Errorf("reopening rotated WAL: %w", err))
	}
	s.w = w
	if err := s.fs.SyncDir(s.dir); err != nil {
		s.logf("syncing %s after WAL rotation: %v", s.dir, err)
	}
	s.walFloor = w.Size()
	s.snapLow = epoch
	s.pruneSnapshotsLocked(epoch)
	return nil
}

// pruneSnapshotsLocked deletes snapshot generations beyond KeepSnapshots,
// never touching the newest. A failed prune is counted, not fatal: the file
// still lists, so the next compaction retries it.
func (s *Store) pruneSnapshotsLocked(newest uint64) {
	epochs, err := snapshotEpochs(s.fs, s.dir)
	if err != nil {
		s.pruneFailures.Add(1)
		s.logf("listing snapshots for pruning: %v", err)
		return
	}
	kept := 0
	for i := len(epochs) - 1; i >= 0; i-- {
		if epochs[i] > newest {
			continue // a concurrent newer snapshot: not ours to manage
		}
		if kept++; kept <= s.opts.keep() {
			continue
		}
		if err := s.fs.Remove(s.snapPath(epochs[i])); err != nil {
			s.pruneFailures.Add(1)
			s.logf("pruning snapshot epoch %d: %v", epochs[i], err)
		}
	}
}

// scrubLoop runs the periodic scrubber until the store closes.
func (s *Store) scrubLoop() {
	defer s.bgWG.Done()
	t := time.NewTicker(s.opts.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
		}
		if err := s.Scrub(); err != nil {
			s.logf("scrub: %v", err)
		}
	}
}

// Scrub re-verifies every snapshot's whole-file checksum and the WAL's frame
// CRCs, now, synchronously. Corrupt snapshots are quarantined (renamed to
// *.quarantine, preserving the evidence) and a compaction is kicked to
// restore full snapshot coverage; a WAL that no longer replays to its acked
// size is counted as torn and likewise compacted away, rewriting the log
// from live state. It returns the first corruption found, nil for a clean
// pass. OpenStore runs the snapshot half of this automatically; the periodic
// loop behind StoreOptions.ScrubInterval runs all of it.
func (s *Store) Scrub() error {
	var firstErr error
	epochs, err := snapshotEpochs(s.fs, s.dir)
	if err != nil {
		return err
	}
	quarantined := false
	for _, epoch := range epochs {
		path := s.snapPath(epoch)
		if err := core.ScrubSnapshotFile(s.fs, path); err != nil {
			s.scrubFails.Add(1)
			// Only proven corruption moves the file aside; an I/O error while
			// reading is reported but leaves the (possibly healthy) snapshot
			// where it is for the next pass.
			if errors.Is(err, core.ErrCorruptSnapshot) {
				s.quarantine(path, err)
				quarantined = true
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("snapshot %s: %w", filepath.Base(path), err)
			}
		}
	}
	// The WAL scrub holds s.mu so no append moves the acked size under the
	// replay; every intact frame re-verifies its CRC on the way through.
	s.mu.Lock()
	acked := s.w.Size()
	size, werr := wal.ReplayFS(s.fs, s.walPath(), func([]byte) error { return nil })
	s.mu.Unlock()
	if werr == nil && size < acked {
		werr = fmt.Errorf("goalrec: WAL replays to %d of %d acked bytes (mid-log corruption)", size, acked)
		s.walTears.Add(1)
	}
	if werr != nil {
		s.scrubFails.Add(1)
		if firstErr == nil {
			firstErr = werr
		}
	}
	if quarantined || werr != nil {
		// Restore coverage: a fresh snapshot of the live epoch and a clean
		// log rewrite. Best effort — a degraded disk fails it, and the next
		// scrub or recovery retries.
		if cerr := s.Compact(); cerr != nil {
			s.logf("post-scrub compaction: %v", cerr)
		}
	}
	if firstErr == nil {
		s.scrubPasses.Add(1)
	}
	return firstErr
}

// Close detaches the store from its engine, syncs and closes the WAL, and
// releases every snapshot mapping opened during the store's lifetime. The
// engine remains usable afterwards but is no longer durable. Close only
// after readers can no longer reach mapped snapshots.
func (s *Store) Close() error {
	s.engine.setJournal(nil)
	s.closeOnce.Do(func() { close(s.closed) })
	s.bgWG.Wait()
	s.compactWG.Wait()
	s.mu.Lock()
	err := s.w.Close()
	s.mu.Unlock()
	s.closeMaps()
	return err
}

func (s *Store) closeMaps() {
	s.unmapMu.Lock()
	defer s.unmapMu.Unlock()
	for _, f := range s.unmaps {
		_ = f()
	}
	s.unmaps = nil
}

// ---------------------------------------------------------------------------
// WAL payload codec
// ---------------------------------------------------------------------------

// Batch payloads are name-level, not id-level: replay re-interns names in
// log order, reproducing the exact id assignment of the original ingests.
//
//	kind (1 byte, 1 = batch) | uvarint epoch | uvarint nImpls |
//	  per impl: uvarint len(goal) | goal | uvarint nActions |
//	    per action: uvarint len(name) | name

// User records ride the same log:
//
//	kind (1 byte, 2 = user-append) | uvarint len(id) | id |
//	  uvarint nNames | per name: uvarint len(name) | name
//	kind (1 byte, 3 = user-delete) | uvarint len(id) | id
//
// Appends carry the post-dedup suffix, so replaying them through
// User.AppendNames reproduces the history bit-identically; deletes must stay
// ordered after the appends they erase, which log order guarantees.
const (
	walKindBatch      = 1
	walKindUserAppend = 2
	walKindUserDelete = 3
)

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

func appendString(dst []byte, v string) []byte {
	dst = appendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func encodeBatch(epoch uint64, impls []Implementation) []byte {
	out := []byte{walKindBatch}
	out = appendUvarint(out, epoch)
	out = appendUvarint(out, uint64(len(impls)))
	for _, impl := range impls {
		out = appendString(out, impl.Goal)
		out = appendUvarint(out, uint64(len(impl.Actions)))
		for _, a := range impl.Actions {
			out = appendString(out, a)
		}
	}
	return out
}

type batchDecoder struct{ b []byte }

func (d *batchDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *batchDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)) {
		return "", fmt.Errorf("string of %d bytes overruns record", n)
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v, nil
}

func decodeBatch(payload []byte) (uint64, []Implementation, error) {
	if len(payload) == 0 || payload[0] != walKindBatch {
		return 0, nil, fmt.Errorf("unknown record kind")
	}
	d := &batchDecoder{b: payload[1:]}
	epoch, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(d.b)) { // every impl takes ≥ 1 byte
		return 0, nil, fmt.Errorf("implausible batch size %d", n)
	}
	impls := make([]Implementation, 0, n)
	for i := uint64(0); i < n; i++ {
		var impl Implementation
		if impl.Goal, err = d.str(); err != nil {
			return 0, nil, err
		}
		na, err := d.uvarint()
		if err != nil {
			return 0, nil, err
		}
		if na > uint64(len(d.b)) {
			return 0, nil, fmt.Errorf("implausible action count %d", na)
		}
		impl.Actions = make([]string, 0, na)
		for j := uint64(0); j < na; j++ {
			a, err := d.str()
			if err != nil {
				return 0, nil, err
			}
			impl.Actions = append(impl.Actions, a)
		}
		impls = append(impls, impl)
	}
	return epoch, impls, nil
}

func encodeUserAppend(id string, names []string) []byte {
	out := []byte{walKindUserAppend}
	out = appendString(out, id)
	out = appendUvarint(out, uint64(len(names)))
	for _, n := range names {
		out = appendString(out, n)
	}
	return out
}

func decodeUserAppend(payload []byte) (string, []string, error) {
	if len(payload) == 0 || payload[0] != walKindUserAppend {
		return "", nil, fmt.Errorf("not a user-append record")
	}
	d := &batchDecoder{b: payload[1:]}
	id, err := d.str()
	if err != nil {
		return "", nil, err
	}
	n, err := d.uvarint()
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(d.b)) { // every name takes ≥ 1 byte
		return "", nil, fmt.Errorf("implausible name count %d", n)
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := d.str()
		if err != nil {
			return "", nil, err
		}
		names = append(names, name)
	}
	return id, names, nil
}

func encodeUserDelete(id string) []byte {
	return appendString([]byte{walKindUserDelete}, id)
}

func decodeUserDelete(payload []byte) (string, error) {
	if len(payload) == 0 || payload[0] != walKindUserDelete {
		return "", fmt.Errorf("not a user-delete record")
	}
	d := &batchDecoder{b: payload[1:]}
	return d.str()
}
