package goalrec

import (
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

// sidecarTempAge is how long a temp file of an interrupted sidecar write must
// have lain untouched before a later rebuild removes it: long enough that it
// cannot belong to a write still in progress in another process.
const sidecarTempAge = 10 * time.Minute

// Decisions LoadLibraryFileMapped reports. A rebuild or a refusal to write is
// followed by ": " and the reason.
const (
	SidecarHit        = "hit"
	SidecarRebuilt    = "rebuilt"
	SidecarUnwritable = "unwritable"
)

// lastSidecar is the decision of the process's latest sidecar-backed load,
// for LibraryBacking.
var lastSidecar atomic.Pointer[string]

// LoadLibraryFileMapped loads the library file at path the way a serving
// process wants it: parsed at most once per content, mapped on every start.
// A JSON-lines file is served from a memory-mapped snapshot of it kept at
// path+SidecarSuffix, which this call builds when it is missing or stale and
// verifies on every open; any other format loads exactly as LoadLibraryFile
// does. With impactOrdering the library comes back in the impact-ordered
// layout (see WithImpactOrdering), and that layout is what the sidecar holds.
//
// The sidecar is keyed by content, never by time: the key is the SHA-256 of
// the source's bytes plus the layout, stored inside the snapshot. Every call
// hashes the source; a sidecar with another key, without one, or that fails
// its whole-file checksum is rebuilt — parse, write to a synced temp file,
// rename — and the key a rebuild writes is the hash of the bytes the parser
// actually consumed, so an edit racing the load cannot be mislabelled.
// Deleting a sidecar is always safe.
//
// decision says what happened: SidecarHit (nothing was parsed),
// "rebuilt: <why the old sidecar was refused>", "unwritable: <cause>" when
// the sidecar could not be written and the parsed, heap-backed library is
// returned instead — the only case in which a JSON-lines file is not served
// mapped — or "" for a file that is not JSON lines. Like LoadLibraryFile's
// snapshot libraries, a mapped library stays mapped for the life of the
// process.
func LoadLibraryFileMapped(path string, impactOrdering bool) (lib *Library, decision string, err error) {
	lib, decision, err = loadLibraryFileMapped(faultfs.OS, path, impactOrdering)
	if err == nil && decision != "" {
		lastSidecar.Store(&decision)
	}
	return lib, decision, err
}

// loadLibraryFileMapped is LoadLibraryFileMapped with the sidecar written
// through fsys (fault injection); the source is always read from the real
// filesystem.
func loadLibraryFileMapped(fsys faultfs.FS, path string, impactOrdering bool) (*Library, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	first, err := firstNonSpace(f)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, "", fmt.Errorf("goalrec: reading %s: %w", path, err)
	}
	if first != '{' {
		lib, err := LoadLibraryFile(path)
		if err == nil && impactOrdering {
			lib = lib.ImpactOrdered()
		}
		return lib, "", err
	}

	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, "", fmt.Errorf("goalrec: reading %s: %w", path, err)
	}
	lib, refused := openSidecar(fsys, path, sidecarKey(h, impactOrdering))
	if refused == nil {
		return lib, SidecarHit, nil
	}

	// The key must describe the bytes the parser sees, not the ones hashed
	// above: the file may have been replaced or appended to in between.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, "", fmt.Errorf("goalrec: reading %s: %w", path, err)
	}
	h.Reset()
	clib, vocab, err := core.ReadJSONLines(io.TeeReader(f, h))
	if err != nil {
		return nil, "", err
	}
	parsed := &Library{lib: clib, vocab: vocab}
	if impactOrdering {
		parsed = parsed.ImpactOrdered()
	}
	key := sidecarKey(h, impactOrdering)
	err = writeSidecar(fsys, path+SidecarSuffix, parsed.lib, parsed.vocab, key)
	if err == nil {
		lib, err = openSidecar(fsys, path, key)
	}
	if err != nil {
		return parsed, SidecarUnwritable + ": " + err.Error(), nil
	}
	return lib, SidecarRebuilt + ": " + refusal(refused), nil
}

// sidecarRef names the sidecar a library was opened from: the source's path
// and the key the sidecar verified as.
type sidecarRef struct {
	src string
	key []byte
}

// sidecarKey labels a snapshot as the image of the source whose bytes went
// through h, in the given layout.
func sidecarKey(h hash.Hash, impactOrdering bool) []byte {
	layout := "plain"
	if impactOrdering {
		layout = "impact"
	}
	return []byte(fmt.Sprintf("jsonl-sha256:%x layout:%s", h.Sum(nil), layout))
}

// openSidecar maps the sidecar of the source at src if it verifies as the
// image of key. The mapping is never released.
func openSidecar(fsys faultfs.FS, src string, key []byte) (*Library, error) {
	snap, err := core.OpenSnapshotKeyed(fsys, src+SidecarSuffix, key)
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
// path as the snapshot keyed key (temp file, sync, rename), then clears what
// interrupted writes left beside it.
func writeSidecar(fsys faultfs.FS, path string, lib *core.Library, vocab *core.Vocabulary, key []byte) error {
	err := core.WriteSnapshotFileFS(fsys, path, lib, vocab, core.SnapshotOptions{SourceKey: key})
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

// removeStaleTemps deletes what interrupted snapshot writes left in dir.
// Best effort: a temp file that cannot be removed only wastes disk.
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
		if fi, err := e.Info(); err == nil && time.Since(fi.ModTime()) > sidecarTempAge {
			_ = fsys.Remove(filepath.Join(dir, name))
		}
	}
}

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
	b.MappedGenerations, b.MappedBytes = core.MappedSnapshots()
	if d := lastSidecar.Load(); d != nil {
		b.Sidecar = *d
	}
	return b
}
