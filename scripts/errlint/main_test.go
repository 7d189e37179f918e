package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const src = `package p

func good(f interface{ Close() error }) error {
	defer f.Close()        // allowed: best-effort cleanup idiom
	_ = f.Close()          // allowed: explicit discard
	if err := f.Close(); err != nil {
		return err
	}
	return f.Close()
}

func bad(f interface {
	Close() error
	Sync() error
	Link(a, b string) error
}) {
	f.Close()          // flagged
	f.Sync()           // flagged
	f.Link("a", "b")   // flagged
	g := func() error { return nil }
	g() // not a checked name
}
`

func TestLintFile(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := lintFile(fset, f)
	if len(got) != 3 {
		t.Fatalf("want 3 findings, got %d: %v", len(got), got)
	}
	if !strings.Contains(got[0], "x.go:17") || !strings.Contains(got[0], "Close") {
		t.Errorf("first finding = %q", got[0])
	}
	if !strings.Contains(got[1], "x.go:18") || !strings.Contains(got[1], "Sync") {
		t.Errorf("second finding = %q", got[1])
	}
	if !strings.Contains(got[2], "x.go:19") || !strings.Contains(got[2], "Link") {
		t.Errorf("third finding = %q", got[2])
	}
}
