package goalrec

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"goalrec/internal/core"
	"goalrec/internal/faultfs"
)

// SidecarSuffix is appended to a JSON-lines library's path to name the
// snapshot LoadLibraryFileMapped keeps of it.
const SidecarSuffix = ".gsnp"

// sidecarEpoch is the epoch a sidecar is sealed at: the one a fresh engine's
// Swap publishes its first library at. A store seeded from the sidecar then
// persists that epoch as the sidecar file itself, by a hard link
// (core.LinkSnapshotFileFS); an engine stamps every library it publishes
// with its own counter, so serving never reads this one.
const sidecarEpoch = 1

// staleTempAge is how long a temp file of an interrupted snapshot write — a
// sidecar's or a store's — must have lain untouched before removeStaleTemps
// deletes it: long enough that it cannot belong to a write still in progress
// in another process.
const staleTempAge = 10 * time.Minute

// Decisions LoadLibraryFileMapped reports. A rebuild or a refusal to write is
// followed by ": " and the reason.
const (
	SidecarHit        = "hit"
	SidecarRebuilt    = "rebuilt"
	SidecarUnwritable = "unwritable"
)

// How the latest sidecar-backed load established the sidecar's key, for
// LibraryBacking.SidecarKeyedBy.
const (
	keyedByStamp = "stamp"
	keyedByHash  = "hash"
)

// sidecarLoad is what LibraryBacking reports of a sidecar-backed load.
type sidecarLoad struct{ decision, keyedBy string }

// lastSidecar is the process's latest sidecar-backed load, for
// LibraryBacking.
var lastSidecar atomic.Pointer[sidecarLoad]

// LoadLibraryFileMapped loads the library file at path the way a serving
// process wants it: parsed at most once per content, mapped on every start.
// A JSON-lines file is served from a memory-mapped snapshot of it kept at
// path+SidecarSuffix, which this call builds when it is missing or stale and
// verifies on every open; any other format loads exactly as LoadLibraryFile
// does. A sidecar is sealed at epoch 1, the epoch a fresh engine publishes
// its first library at, so a store seeded with it persists that epoch as the
// sidecar file itself (a hard link). A sidecar sealed at epoch 0 by an older
// release still serves, and a store copies it until it is rebuilt.
//
// The sidecar is keyed by content: the key is the SHA-256 of the source's
// bytes plus the layout label "plain" (the one layout), stored inside the
// snapshot. A rebuild — parse, write to a synced temp file, rename — keys the
// sidecar with the hash of the bytes the parser actually consumed, so an edit
// racing the load cannot be mislabelled, and also records the source's stamp
// (size, modification and change times, inode, device) when the source had
// provably settled before it was read. A later call whose
// source still has that stamp opens the sidecar under its stored key without
// reading the source; every other call hashes the source. Either way a
// sidecar with another key, without one, or that fails its whole-file
// checksum is rebuilt. Deleting a sidecar is always safe.
//
// decision says what happened: SidecarHit (nothing was parsed),
// "rebuilt: <why the old sidecar was refused>", "unwritable: <cause>" when
// the sidecar could not be written and the parsed, heap-backed library is
// returned instead — the only case in which a JSON-lines file is not served
// mapped — or "" for a file that is not JSON lines. Like LoadLibraryFile's
// snapshot libraries, a mapped library stays mapped for the life of the
// process.
func LoadLibraryFileMapped(path string) (lib *Library, decision string, err error) {
	lib, decision, err = loadLibraryFileMapped(faultfs.OS, path)
	if err == nil && decision != "" {
		keyedBy := keyedByHash
		if lib.side != nil && lib.side.stamped {
			keyedBy = keyedByStamp
		}
		lastSidecar.Store(&sidecarLoad{decision, keyedBy})
	}
	return lib, decision, err
}

// loadLibraryFileMapped is LoadLibraryFileMapped with the sidecar written
// through fsys (fault injection); the source is always read from the real
// filesystem.
func loadLibraryFileMapped(fsys faultfs.FS, path string) (*Library, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	if lib := openStamped(fsys, f, path); lib != nil {
		return lib, SidecarHit, nil
	}
	first, err := firstNonSpace(f)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, "", fmt.Errorf("goalrec: reading %s: %w", path, err)
	}
	if first != '{' {
		lib, err := LoadLibraryFile(path)
		return lib, "", err
	}

	h := countedHash{sha256.New()}
	if _, err := io.Copy(h, f); err != nil {
		return nil, "", fmt.Errorf("goalrec: reading %s: %w", path, err)
	}
	lib, refused := openSidecar(fsys, path, core.KeyIs(sidecarKey(h)))
	if refused == nil {
		return lib, SidecarHit, nil
	}

	// The key must describe the bytes the parser sees, not the ones hashed
	// above: the file may have been replaced or appended to in between.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, "", fmt.Errorf("goalrec: reading %s: %w", path, err)
	}
	h.Reset()
	// The stamp recorded beside the key is an fstat taken before the parse
	// reads the source, and only if a second one after it is equal and the
	// source's modification and change times are both strictly older than
	// the sidecar directory's clock read before the first: any write after
	// that read gets times no older than the clock, so it moves the stamp
	// even within one tick of the filesystem's coarse clock. Otherwise, or
	// where stamps are incomplete, no stamp is recorded.
	clock, clockErr := dirClock(filepath.Dir(path))
	pre, preOK := fileStamp(f)
	clib, vocab, err := core.ReadJSONLines(io.TeeReader(f, h))
	if err != nil {
		return nil, "", err
	}
	var stamp core.FileStamp
	if post, postOK := fileStamp(f); clockErr == nil && preOK && postOK && post == pre && pre.Mtime < clock && pre.Ctime < clock {
		stamp = pre
	}
	parsed := &Library{lib: clib, vocab: vocab}
	key := sidecarKey(h)
	err = writeSidecar(fsys, path+SidecarSuffix, clib.WithEpoch(sidecarEpoch), vocab, core.SnapshotOptions{SourceKey: key, SourceStamp: stamp})
	if err == nil {
		lib, err = openSidecar(fsys, path, core.KeyIs(key))
	}
	if err != nil {
		return parsed, SidecarUnwritable + ": " + err.Error(), nil
	}
	return lib, SidecarRebuilt + ": " + refusal(refused), nil
}

// openStamped maps the sidecar of the source open as f at path if the
// sidecar recorded a stamp equal to the source's current one and a key of
// the sidecar shape: the source then holds the bytes that key was hashed
// from, so it is not read, and the library keeps that key. The open still
// checks every byte of the sidecar. It returns nil whenever the stamp cannot
// be trusted or the open refuses, and the caller hashes the source.
func openStamped(fsys faultfs.FS, f *os.File, path string) *Library {
	cur, ok := fileStamp(f)
	if !ok {
		return nil
	}
	lib, err := openSidecar(fsys, path, func(key []byte, stamp core.FileStamp) error {
		if stamp != cur || !isSidecarKey(key) {
			return errors.New("stamp moved")
		}
		return nil
	})
	if err != nil {
		return nil
	}
	lib.side.stamped = true
	return lib
}

// fileStamp is the stamp of the open file f; ok is false unless it is
// complete (core.StatStamp).
func fileStamp(f *os.File) (s core.FileStamp, ok bool) {
	fi, err := f.Stat()
	if err != nil {
		return core.FileStamp{}, false
	}
	return core.StatStamp(fi)
}

// dirClock returns the time of the filesystem holding dir as that
// filesystem's own clock reads it: the modification time of a file created
// there, in nanoseconds. Kernels stamp file times from a coarse clock of
// their own, which time.Now may read ahead of. A variable so that tests can
// stop the clock.
var dirClock = func(dir string) (int64, error) {
	f, err := os.CreateTemp(dir, ".snap-clock-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.ModTime().UnixNano(), nil
}

// sidecarRef names the sidecar a library was opened from: the source's path
// and the key the sidecar verified as. stamped is true when that key was
// taken from the sidecar on the source's stamp, without reading the source.
type sidecarRef struct {
	src     string
	key     []byte
	stamped bool
}

// sidecarKey labels a snapshot as the image of the source whose bytes went
// through h. The layout label predates the one layout and is kept so that
// sidecars written before stay hits.
func sidecarKey(h hash.Hash) []byte {
	return []byte(fmt.Sprintf("jsonl-sha256:%x layout:plain", h.Sum(nil)))
}

var sidecarKeyLen = len(sidecarKey(sha256.New()))

// countedHash is a source hash whose input is counted in the process's
// snapshot I/O counters (core.IOStats.SourceBytesHashed).
type countedHash struct{ hash.Hash }

func (h countedHash) Write(p []byte) (int, error) {
	core.CountSourceHashed(len(p))
	return h.Hash.Write(p)
}

// isSidecarKey reports whether key has the shape sidecarKey gives: a stored
// key is reused on a stamp match only when it names this hash and layout.
func isSidecarKey(key []byte) bool {
	return len(key) == sidecarKeyLen && bytes.HasPrefix(key, []byte("jsonl-sha256:")) && bytes.HasSuffix(key, []byte(" layout:plain"))
}

// openSidecar maps the sidecar of the source at src, never to be released,
// if it verifies with a source key and stamp accept takes; it keeps the key.
func openSidecar(fsys faultfs.FS, src string, accept func([]byte, core.FileStamp) error) (*Library, error) {
	var key []byte
	snap, err := core.OpenSnapshotVerified(fsys, src+SidecarSuffix, func(k []byte, stamp core.FileStamp) error {
		key = k
		return accept(k, stamp)
	})
	if err != nil {
		return nil, err
	}
	lib, err := snapshotLibrary(snap, src+SidecarSuffix)
	if err != nil {
		return nil, err
	}
	lib.side = &sidecarRef{src: src, key: key}
	return lib, nil
}

// writeSidecar seals lib — with vocab, or id-level when vocab is nil — to
// path as the snapshot labelled opts (temp file, sync, rename), then clears
// what interrupted writes left beside it.
func writeSidecar(fsys faultfs.FS, path string, lib *core.Library, vocab *core.Vocabulary, opts core.SnapshotOptions) error {
	err := core.WriteSnapshotFileFS(fsys, path, lib, vocab, opts)
	if err == nil {
		removeStaleTemps(fsys, filepath.Dir(path))
	}
	return err
}

// refusal says why a keyed open refused a sidecar, for a rebuilt decision.
func refusal(err error) string {
	if errors.Is(err, fs.ErrNotExist) {
		return "no sidecar"
	}
	return err.Error()
}

// removeStaleTemps deletes what interrupted snapshot writes left in dir: a
// sidecar rebuild runs it beside the library, a store on open and after each
// snapshot it writes. Best effort: a temp file that cannot be removed only
// wastes disk.
func removeStaleTemps(fsys faultfs.FS, dir string) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ".snap-") || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if fi, err := e.Info(); err == nil && time.Since(fi.ModTime()) > staleTempAge {
			_ = fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// IOStats counts what this process's snapshot files and library sources
// have cost it in I/O since it started (core.IOStats): the "io" block of
// /v1/metrics.
type IOStats = core.IOStats

// ReadIOStats returns the process's I/O counters.
func ReadIOStats() IOStats { return core.ReadIOStats() }

// IndexBytes is the size of a library's index structures: the base's flat
// arrays by structure, plus the tail and overlay of an extended snapshot.
type IndexBytes = core.IndexBytes

// OverlayRows counts the copy-on-write overlay of an extended snapshot: the
// actions and goals whose index rows it replaces, and the pages holding them.
type OverlayRows = core.OverlayStats

// VocabBacking says where the name dictionary lives.
type VocabBacking struct {
	// Backing is "mapped" when the names the library was opened with are
	// served from a snapshot mapping, "heap" otherwise.
	Backing string `json:"backing"`
	// BaseNames are served from the snapshot image the library was opened
	// from; GrownNames were interned since and are on the heap.
	BaseNames  int `json:"base_names"`
	GrownNames int `json:"grown_names"`
	// TableBytes is the size of the base names' lookup tables.
	TableBytes int64 `json:"table_bytes"`
	// Table says where those tables come from: "sealed" when both were read
	// from the snapshot image, "built" when one was built on the heap at open
	// (an image sealed before the tables were), "" without a base.
	Table string `json:"table"`
	// Checksum says where VocabChecksum comes from: "sealed" when it is read
	// from the snapshot image, "computed" when it is hashed from the names (a
	// heap library, names grown since the open, an image sealed before the
	// checksum was), "" without a name.
	Checksum string `json:"checksum"`
}

// LibraryBacking says what memory backs a served library, base apart from
// delta: the per-structure memory ledger reported under "library" in
// /v1/metrics.
type LibraryBacking struct {
	// Backing is "mapped" when the flat index arrays are views over a
	// snapshot mapping, "heap" when they live on the Go heap.
	Backing string `json:"backing"`
	// IndexBytes is the size of each index structure.
	IndexBytes IndexBytes `json:"index_bytes"`
	// TailImplementations counts the implementations appended since the base
	// was adopted or last compacted; Overlay counts the index rows they
	// replaced. Both are 0 on a flat library.
	TailImplementations int         `json:"tail_implementations"`
	Overlay             OverlayRows `json:"overlay"`
	// VocabNames counts the action and goal names of the vocabulary; Vocab
	// says where they live.
	VocabNames int          `json:"vocab_names"`
	Vocab      VocabBacking `json:"vocab"`
	// MappedBytes and MappedGenerations total the snapshot mappings this
	// process holds, superseded generations included: a mapped library stays
	// mapped for the life of the process.
	MappedBytes       int64 `json:"mapped_bytes"`
	MappedGenerations int64 `json:"mapped_generations"`
	// Sidecar is the decision of the process's latest sidecar-backed load
	// (see LoadLibraryFileMapped), "" before the first.
	Sidecar string `json:"sidecar"`
	// SidecarKeyedBy says how that load established the sidecar's key:
	// "stamp" when the source's recorded stamp still held and the source was
	// not read, "hash" when its bytes were hashed.
	SidecarKeyedBy string `json:"sidecar_keyed_by"`
}

// Backing reports what backs l, plus the process-wide mapping totals.
func (l *Library) Backing() LibraryBacking {
	acts, goals := l.vocab.Actions.Stats(), l.vocab.Goals.Stats()
	b := LibraryBacking{
		Backing:             "heap",
		IndexBytes:          l.lib.IndexBytes(),
		TailImplementations: l.lib.TailImplementations(),
		Overlay:             l.lib.Overlay(),
		VocabNames:          acts.BaseNames + acts.GrownNames + goals.BaseNames + goals.GrownNames,
		Vocab: VocabBacking{
			Backing:    "heap",
			BaseNames:  acts.BaseNames + goals.BaseNames,
			GrownNames: acts.GrownNames + goals.GrownNames,
			TableBytes: acts.TableBytes + goals.TableBytes,
		},
	}
	if l.lib.Mapped() {
		b.Backing = "mapped"
	}
	if acts.Mapped || goals.Mapped {
		b.Vocab.Backing = "mapped"
	}
	switch {
	case acts.Sealed && goals.Sealed:
		b.Vocab.Table = "sealed"
	case acts.BaseNames+goals.BaseNames > 0:
		b.Vocab.Table = "built"
	}
	switch {
	case l.vocab.ChecksumSealed(l.lib.NumActions(), l.lib.NumGoals()):
		b.Vocab.Checksum = "sealed"
	case b.VocabNames > 0:
		b.Vocab.Checksum = "computed"
	}
	b.MappedGenerations, b.MappedBytes = core.MappedSnapshots()
	if d := lastSidecar.Load(); d != nil {
		b.Sidecar, b.SidecarKeyedBy = d.decision, d.keyedBy
	}
	return b
}
