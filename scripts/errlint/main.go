// Command errlint vets the persistence packages for silently dropped I/O
// errors: a Close, Sync, Remove, Rename or Link whose error result is
// discarded by an expression statement. In a storage stack those calls are
// where durability bugs hide — a Close that fails after buffered writes, a
// Sync that never reached the platter, a Remove that left a stale snapshot, a
// Link that never made its name — so dropping their errors implicitly is a
// CI failure.
//
//	go run ./scripts/errlint ./... # or: make errlint
//
// Deliberate discards stay expressible, and visible: `_ = f.Close()` passes,
// as does `defer f.Close()` (a best-effort cleanup idiom the codebase uses
// on error paths that already have a primary error to report). Test files
// are skipped. The lint is AST-only — no type information — so it checks
// any selector call named Close/Sync/Remove/Rename/Link, which in these packages
// is exactly the I/O surface.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checked is the method/function name set whose dropped errors we flag.
var checked = map[string]bool{
	"Close":  true,
	"Sync":   true,
	"Remove": true,
	"Rename": true,
	"Link":   true,
}

// defaultDirs are the persistence packages: everywhere a dropped I/O error
// can cost durability. Arguments override them.
var defaultDirs = []string{".", "internal/wal", "internal/core", "internal/faultfs"}

func main() {
	root := flag.String("root", ".", "repository root to lint relative to")
	flag.Parse()

	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var files []string
	for _, d := range dirs {
		ents, err := os.ReadDir(filepath.Join(*root, d))
		if err != nil {
			fmt.Fprintf(os.Stderr, "errlint: %v\n", err)
			os.Exit(2)
		}
		for _, ent := range ents {
			name := ent.Name()
			if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, filepath.Join(*root, d, name))
		}
	}
	sort.Strings(files)

	bad := 0
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "errlint: %v\n", err)
			os.Exit(2)
		}
		for _, finding := range lintFile(fset, f) {
			fmt.Println(finding)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "errlint: %d dropped I/O error(s)\n", bad)
		os.Exit(1)
	}
}

// lintFile reports every expression statement in f that calls a checked
// method and drops its result on the floor.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := calleeName(call); ok && checked[name] {
			pos := fset.Position(call.Pos())
			out = append(out, fmt.Sprintf("%s:%d: result of %s() dropped; handle the error or discard it explicitly with `_ =`", pos.Filename, pos.Line, name))
		}
		return true
	})
	return out
}

// calleeName unwraps the called expression to its final identifier:
// f.Close → Close, os.Remove → Remove, x.y.z.Sync → Sync.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name, true
	case *ast.Ident:
		return fn.Name, true
	}
	return "", false
}
