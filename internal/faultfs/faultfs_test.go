package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")
	f, err := OS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := OS.Rename(path, filepath.Join(dir, "g.txt")); err != nil {
		t.Fatal(err)
	}
	if err := OS.Link(filepath.Join(dir, "g.txt"), filepath.Join(dir, "h.txt")); err != nil {
		t.Fatal(err)
	}
	g, gerr := OS.Stat(filepath.Join(dir, "g.txt"))
	h, herr := OS.Stat(filepath.Join(dir, "h.txt"))
	if gerr != nil || herr != nil || !os.SameFile(g, h) {
		t.Fatalf("the link is not the file it links: %v, %v", gerr, herr)
	}
	if err := OS.Remove(filepath.Join(dir, "h.txt")); err != nil {
		t.Fatal(err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "g.txt" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Remove(filepath.Join(dir, "g.txt")); err != nil {
		t.Fatal(err)
	}
}

// TestInjectorLink: a link is traced under its new name, fails as scripted
// without making the name, and fails once the filesystem has crashed.
func TestInjectorLink(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(OS)
	inj.StartTrace()
	inj.Fail(Rule{Op: OpLink, Err: &injectedError{errno: syscall.EXDEV}, Once: true})
	if err := inj.Link(src, filepath.Join(dir, "a")); !errors.Is(err, syscall.EXDEV) || !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted Link = %v, want injected EXDEV", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed link made its name: %v", err)
	}
	if err := inj.Link(src, filepath.Join(dir, "b")); err != nil {
		t.Fatalf("Link after the Once rule = %v", err)
	}
	trace := inj.Trace()
	if len(trace) != 2 || trace[0].Op != OpLink || trace[1].Path != filepath.Join(dir, "b") || OpLink.String() != "link" {
		t.Fatalf("trace %v", trace)
	}
	inj.Crash()
	if err := inj.Link(src, filepath.Join(dir, "c")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Link = %v, want ErrCrashed", err)
	}
}

func TestInjectorRuleMatching(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.Fail(Rule{Op: OpSync, Path: "wal", Err: EIO})

	f, err := inj.OpenFile(filepath.Join(dir, "ingest.wal"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync = %v, want injected EIO", err)
	}
	// error-always: fires again.
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second Sync = %v, want injected", err)
	}
	// A different path is untouched.
	g, err := inj.OpenFile(filepath.Join(dir, "snap.gsnp"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("unmatched Sync = %v", err)
	}
	_ = f.Close()
	_ = g.Close()
}

func TestInjectorErrorOnce(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.Fail(Rule{Op: OpWriteAt, Once: true})
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("first WriteAt = %v, want injected", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("second WriteAt = %v, want nil after Once", err)
	}
}

func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.Fail(Rule{Op: OpWriteAt, Short: 3, Once: true, Err: ENOSPC})
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.WriteAt([]byte("abcdef"), 0)
	if n != 3 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("WriteAt = %d, %v; want 3, ENOSPC", n, err)
	}
	got, rerr := os.ReadFile(filepath.Join(dir, "f"))
	if rerr != nil || string(got) != "abc" {
		t.Fatalf("on disk %q, %v; want the torn prefix \"abc\"", got, rerr)
	}
}

func TestInjectorWriteBudget(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.SetWriteBudget(10)
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt([]byte("12345678"), 0); n != 8 || err != nil {
		t.Fatalf("within budget: %d, %v", n, err)
	}
	n, err := f.WriteAt([]byte("abcdef"), 8)
	if n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over budget: %d, %v; want 2, ENOSPC", n, err)
	}
	if _, err := f.WriteAt([]byte("x"), 10); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("exhausted budget write = %v, want ENOSPC", err)
	}
	inj.SetWriteBudget(-1)
	if _, err := f.WriteAt([]byte("x"), 10); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestInjectorTraceAndFailAt(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.StartTrace()
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	trace := inj.Trace()
	if len(trace) != 3 {
		t.Fatalf("trace has %d sites, want 3: %v", len(trace), trace)
	}
	wantOps := []Op{OpOpenFile, OpWriteAt, OpClose}
	for k, s := range trace {
		if s.Op != wantOps[k] || s.Index != int64(k) {
			t.Fatalf("site %d = %v, want op %v", k, s, wantOps[k])
		}
	}

	// Replaying the same operations with FailAt(1) fails exactly the write.
	inj2 := NewInjector(OS)
	inj2.FailAt(1, EIO)
	g, err := inj2.OpenFile(filepath.Join(dir, "g"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("x"), 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("op 1 = %v, want EIO", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("op 2 = %v, want nil", err)
	}
}

func TestInjectorCrash(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	inj.Crash()
	if _, err := f.WriteAt([]byte("lost"), 7); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write = %v, want ErrCrashed", err)
	}
	if _, err := inj.Open(filepath.Join(dir, "f")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open = %v, want ErrCrashed", err)
	}
	inj.Uncrash()
	got, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil || string(got) != "durable" {
		t.Fatalf("after restart: %q, %v; want the pre-crash bytes", got, err)
	}
}

func TestInjectorCrashAt(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(OS)
	inj.CrashAt(1)
	f, err := inj.OpenFile(filepath.Join(dir, "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 1 = %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 2 = %v, want ErrCrashed (latched)", err)
	}
}
