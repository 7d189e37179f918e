package faultfs

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
)

// ErrInjected is the default error an unconfigured fault rule returns; every
// injected error wraps it (or is it), so tests can match injected failures
// with errors.Is regardless of the scripted errno.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is what every operation returns after Crash: the process-death
// model where the filesystem stops responding but everything already written
// stays on disk.
var ErrCrashed = fmt.Errorf("%w: crashed", ErrInjected)

// ENOSPC is the injected disk-full error, matching both ErrInjected and
// syscall.ENOSPC under errors.Is.
var ENOSPC = &injectedError{errno: syscall.ENOSPC}

// EIO is the injected generic I/O error, matching both ErrInjected and
// syscall.EIO under errors.Is.
var EIO = &injectedError{errno: syscall.EIO}

// EINTR is the injected interrupted-syscall error — the transient class a
// caller is expected to absorb by retrying.
var EINTR = &injectedError{errno: syscall.EINTR}

type injectedError struct{ errno syscall.Errno }

func (e *injectedError) Error() string { return "faultfs: injected " + e.errno.Error() }

func (e *injectedError) Is(target error) bool {
	return target == ErrInjected || target == e.errno
}

// Site identifies one filesystem operation of a traced workload: the Nth
// operation overall, what it was, and the path it touched. The torture
// harness enumerates sites on a clean run and then re-runs the workload
// failing each one.
type Site struct {
	Index int64
	Op    Op
	Path  string
}

func (s Site) String() string { return fmt.Sprintf("#%d %s %s", s.Index, s.Op, s.Path) }

// Rule scripts one fault. The zero Op, empty Path and zero AtOp match
// everything. A matched write-class operation with Short > 0 writes that
// many bytes before failing (a torn write); other matches fail outright with
// Err (ErrInjected when nil).
type Rule struct {
	Op   Op     // operation class to match; OpAny matches all
	Path string // substring of the path; "" matches all
	AtOp int64  // 1-based operation sequence number (Site.Index+1); 0 matches any
	Err  error  // error to inject; nil selects ErrInjected

	// Short, for OpWrite/OpWriteAt, is how many payload bytes land before
	// the error — a torn write. 0 fails the write before any byte lands.
	Short int
	// Once disarms the rule after its first hit ("error-once"); otherwise
	// the rule keeps firing ("error-always").
	Once bool

	hits int64
}

// Injector wraps an FS with scriptable faults and an operation trace. It is
// safe for concurrent use; the operation counter orders concurrent
// operations arbitrarily but consistently.
type Injector struct {
	inner FS

	mu      sync.Mutex
	nextOp  int64
	rules   []*Rule
	tracing bool
	trace   []Site
	crashed bool

	// writeBudget < 0 means unlimited; otherwise every write-class byte
	// drains it and writes beyond it fail with ENOSPC (partial writes land,
	// as a full disk really behaves).
	writeBudget int64
}

// NewInjector returns an Injector over inner (OS when nil) with no rules, no
// budget and tracing off: a pure passthrough until scripted.
func NewInjector(inner FS) *Injector {
	return &Injector{inner: Or(inner), writeBudget: -1}
}

// Fail registers a rule. It returns the Injector for chaining.
func (i *Injector) Fail(r Rule) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = append(i.rules, &r)
	return i
}

// FailAt scripts the single operation with trace index idx (Site.Index) to
// fail with err (ErrInjected when nil) — the torture harness's per-site
// trigger.
func (i *Injector) FailAt(idx int64, err error) *Injector {
	return i.Fail(Rule{AtOp: idx + 1, Err: err, Once: true})
}

// ClearRules removes every scripted rule, keeping the trace, counter, budget
// and crash state.
func (i *Injector) ClearRules() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = nil
}

// SetWriteBudget arms the disk-full model: after n more written bytes, every
// write-class operation fails with ENOSPC. n < 0 disarms it.
func (i *Injector) SetWriteBudget(n int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.writeBudget = n
}

// Crash freezes the filesystem: every subsequent operation fails with
// ErrCrashed. Data already written stays readable once Uncrash is called —
// the process-crash model, where the page cache survives but the process
// does not.
func (i *Injector) Crash() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashed = true
}

// Uncrash lifts a Crash, modeling the restart.
func (i *Injector) Uncrash() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashed = false
}

// CrashAt scripts the filesystem to freeze at the operation with trace index
// idx (Site.Index): that operation and everything after it fail with
// ErrCrashed.
func (i *Injector) CrashAt(idx int64) *Injector {
	return i.Fail(Rule{AtOp: idx + 1, Err: errCrashNow})
}

// errCrashNow is the sentinel a CrashAt rule injects; check() sees it and
// latches the crashed state.
var errCrashNow = errors.New("faultfs: crash trigger")

// StartTrace begins recording every operation as a Site.
func (i *Injector) StartTrace() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.tracing = true
	i.trace = nil
}

// Trace returns the recorded sites since StartTrace.
func (i *Injector) Trace() []Site {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Site(nil), i.trace...)
}

// check assigns the operation its global index, traces it, and resolves the
// first matching rule. It returns the number of payload bytes allowed to
// land (meaningful for write-class ops; n is the attempted size) and the
// error to inject, nil for a clean passthrough.
func (i *Injector) check(op Op, path string, n int) (int, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	idx := i.nextOp
	i.nextOp++
	if i.tracing {
		i.trace = append(i.trace, Site{Index: idx, Op: op, Path: path})
	}
	if i.crashed {
		return 0, ErrCrashed
	}
	for _, r := range i.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		if r.AtOp != 0 && r.AtOp != idx+1 {
			continue
		}
		if r.Once && r.hits > 0 {
			continue
		}
		r.hits++
		err := r.Err
		if err == nil {
			err = ErrInjected
		}
		if errors.Is(err, errCrashNow) {
			i.crashed = true
			return 0, ErrCrashed
		}
		allowed := r.Short
		if allowed > n {
			allowed = n
		}
		return allowed, err
	}
	if i.writeBudget >= 0 && (op == OpWrite || op == OpWriteAt) {
		if i.writeBudget >= int64(n) {
			i.writeBudget -= int64(n)
			return n, nil
		}
		allowed := int(i.writeBudget)
		i.writeBudget = 0
		return allowed, ENOSPC
	}
	return n, nil
}

// Injector implements FS.

func (i *Injector) Open(name string) (File, error) {
	if _, err := i.check(OpOpen, name, 0); err != nil {
		return nil, err
	}
	f, err := i.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injectFile{i: i, f: f, name: name}, nil
}

func (i *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, err := i.check(OpOpenFile, name, 0); err != nil {
		return nil, err
	}
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{i: i, f: f, name: name}, nil
}

func (i *Injector) CreateTemp(dir, pattern string) (File, error) {
	if _, err := i.check(OpCreateTemp, dir+"/"+pattern, 0); err != nil {
		return nil, err
	}
	f, err := i.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{i: i, f: f, name: f.Name()}, nil
}

func (i *Injector) Rename(oldpath, newpath string) error {
	if _, err := i.check(OpRename, newpath, 0); err != nil {
		return err
	}
	return i.inner.Rename(oldpath, newpath)
}

func (i *Injector) Link(oldname, newname string) error {
	if _, err := i.check(OpLink, newname, 0); err != nil {
		return err
	}
	return i.inner.Link(oldname, newname)
}

func (i *Injector) Remove(name string) error {
	if _, err := i.check(OpRemove, name, 0); err != nil {
		return err
	}
	return i.inner.Remove(name)
}

func (i *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if _, err := i.check(OpReadDir, name, 0); err != nil {
		return nil, err
	}
	return i.inner.ReadDir(name)
}

func (i *Injector) MkdirAll(path string, perm os.FileMode) error {
	if _, err := i.check(OpMkdirAll, path, 0); err != nil {
		return err
	}
	return i.inner.MkdirAll(path, perm)
}

func (i *Injector) Stat(name string) (os.FileInfo, error) {
	if _, err := i.check(OpStat, name, 0); err != nil {
		return nil, err
	}
	return i.inner.Stat(name)
}

func (i *Injector) SyncDir(dir string) error {
	if _, err := i.check(OpSyncDir, dir, 0); err != nil {
		return err
	}
	return i.inner.SyncDir(dir)
}

// injectFile threads every handle operation back through the injector.
type injectFile struct {
	i    *Injector
	f    File
	name string
}

func (f *injectFile) Read(p []byte) (int, error) {
	if _, err := f.i.check(OpRead, f.name, 0); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *injectFile) ReadAt(p []byte, off int64) (int, error) {
	if _, err := f.i.check(OpReadAt, f.name, 0); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

// write runs one write-class operation: a scripted short write lands its
// prefix (tearing the record exactly as a real partial write would) before
// the error surfaces.
func (f *injectFile) write(op Op, p []byte, at func(p []byte) (int, error)) (int, error) {
	allowed, ierr := f.i.check(op, f.name, len(p))
	if ierr == nil {
		return at(p)
	}
	n := 0
	if allowed > 0 {
		var werr error
		n, werr = at(p[:allowed])
		if werr != nil {
			return n, werr
		}
	}
	return n, ierr
}

func (f *injectFile) Write(p []byte) (int, error) {
	return f.write(OpWrite, p, f.f.Write)
}

func (f *injectFile) WriteAt(p []byte, off int64) (int, error) {
	return f.write(OpWriteAt, p, func(q []byte) (int, error) { return f.f.WriteAt(q, off) })
}

func (f *injectFile) Seek(offset int64, whence int) (int64, error) {
	if _, err := f.i.check(OpSeek, f.name, 0); err != nil {
		return 0, err
	}
	return f.f.Seek(offset, whence)
}

func (f *injectFile) Close() error {
	if _, err := f.i.check(OpClose, f.name, 0); err != nil {
		// The underlying handle still closes: an injected close error models
		// a flush failure surfacing at close, not a leaked descriptor.
		_ = f.f.Close()
		return err
	}
	return f.f.Close()
}

func (f *injectFile) Name() string { return f.f.Name() }

func (f *injectFile) Stat() (os.FileInfo, error) {
	if _, err := f.i.check(OpStat, f.name, 0); err != nil {
		return nil, err
	}
	return f.f.Stat()
}

func (f *injectFile) Sync() error {
	if _, err := f.i.check(OpSync, f.name, 0); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injectFile) Truncate(size int64) error {
	if _, err := f.i.check(OpTruncate, f.name, 0); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *injectFile) Fd() uintptr { return f.f.Fd() }
