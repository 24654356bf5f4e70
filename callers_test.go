package cimrev

// The deletion rule, enforced (ROADMAP item 7): an internal package that no
// non-test file outside itself imports is on no program's path — not a
// binary's, an example's, an experiment's or the benchmark's — and is
// deleted, not kept for its own tests.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestEveryInternalPackageHasACaller(t *testing.T) {
	const module = "cimrev/"
	packages := map[string]bool{} // internal/<pkg> directories holding non-test Go
	imported := map[string]bool{} // those some non-test file elsewhere imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Dot directories hold build output, among it extracted
			// parent trees (.bench_build).
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			packages[dir] = true
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			target, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			target = strings.TrimPrefix(target, module)
			if strings.HasPrefix(target, "internal/") && target != dir {
				imported[target] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no internal packages")
	}
	var orphans []string
	for pkg := range packages {
		if !imported[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s has no caller: no non-test file outside it imports it", pkg)
	}
}
