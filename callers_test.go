package cimrev

// The deletion rule, enforced (ROADMAP item 7): code that no non-test file
// calls is on no program's path — not a binary's, an example's, an
// experiment's or the benchmark's — and is deleted, not kept for its own
// tests. Two tests hold it: one per internal package, one per name declared
// in internal/.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const module = "cimrev/"

// sourceFile is one parsed non-test Go file; dir is its slash-separated
// directory relative to the repository root.
type sourceFile struct {
	dir  string
	file *ast.File
}

// nonTestFiles parses, in the given mode, every non-test Go file in the
// repository — root, cmd/, examples/, the benchmark module and internal/
// alike — skipping dot directories, which hold build output (among it
// extracted parent trees under .bench_build), and testdata.
func nonTestFiles(t *testing.T, mode parser.Mode) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{dir: filepath.ToSlash(filepath.Dir(path)), file: file})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importTarget is the module-relative directory an import names
// ("internal/serve"), or the import path itself outside the module.
func importTarget(t *testing.T, imp *ast.ImportSpec) string {
	path, err := strconv.Unquote(imp.Path.Value)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimPrefix(path, module)
}

func TestEveryInternalPackageHasACaller(t *testing.T) {
	files := nonTestFiles(t, parser.ImportsOnly)
	packages := map[string]bool{} // internal/<pkg> directories holding non-test Go
	imported := map[string]bool{} // those some non-test file elsewhere imports
	for _, f := range files {
		if strings.HasPrefix(f.dir, "internal/") {
			packages[f.dir] = true
		}
		for _, imp := range f.file.Imports {
			if target := importTarget(t, imp); strings.HasPrefix(target, "internal/") && target != f.dir {
				imported[target] = true
			}
		}
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

// callerExempt lists the methods a caller reaches through a standard
// library interface rather than by name, and the one method kept for its
// tests alone.
var callerExempt = map[string]string{
	"String":            "fmt.Stringer",
	"Error":             "error",
	"Unwrap":            "errors.Is and errors.As",
	"ServeHTTP":         "http.Handler",
	"Len":               "sort.Interface",
	"Less":              "sort.Interface",
	"Swap":              "sort.Interface",
	"MarshalJSON":       "json.Marshaler",
	"noise.Source.Norm": "the definition of a draw: the crossbar and fleet tests hold NormStride == to it",
}

// span is a stretch of one file's text.
type span struct {
	file     *ast.File
	pos, end token.Pos
}

// declaration is one judged name: a func, method, type, var or const
// declared at the top level of a non-test file under internal/. A const
// group that uses iota is one declaration under all of its names.
type declaration struct {
	pkg  string   // internal/<pkg>
	name string   // Name, or Type.Method
	keys []string // where its uses are filed: pkg.Name, or a method's bare name
	own  []span   // text whose references do not count: itself, and a type's methods
}

func (d *declaration) usedIn(uses map[string][]span) bool {
	for _, key := range d.keys {
	next:
		for _, use := range uses[key] {
			for _, s := range d.own {
				if s.file == use.file && s.pos <= use.pos && use.pos < s.end {
					continue next
				}
			}
			return true
		}
	}
	return false
}

// receiverType is the name of a method's receiver type.
func receiverType(fn *ast.FuncDecl) string {
	x := fn.Recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch generic := x.(type) {
	case *ast.IndexExpr:
		x = generic.X
	case *ast.IndexListExpr:
		x = generic.X
	}
	return x.(*ast.Ident).Name
}

func usesIota(spec *ast.ValueSpec) bool {
	found := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}

// internalDecls lists every declaration the rule judges.
func internalDecls(files []sourceFile) []*declaration {
	var decls []*declaration
	types := map[string]*declaration{} // pkg.Type → its declaration
	add := func(f sourceFile, d ast.Decl, name string, keys ...string) *declaration {
		decl := &declaration{pkg: f.dir, name: name, keys: keys, own: []span{{f.file, d.Pos(), d.End()}}}
		decls = append(decls, decl)
		return decl
	}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					add(f, d, receiverType(d)+"."+d.Name.Name, d.Name.Name)
				} else if d.Name.Name != "init" {
					add(f, d, d.Name.Name, f.dir+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				var group *declaration
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						types[f.dir+"."+spec.Name.Name] = add(f, d, spec.Name.Name, f.dir+"."+spec.Name.Name)
					case *ast.ValueSpec:
						if d.Tok == token.CONST && (group != nil || usesIota(spec)) {
							if group == nil {
								group = add(f, d, spec.Names[0].Name+" (iota group)")
							}
							for _, n := range spec.Names {
								group.keys = append(group.keys, f.dir+"."+n.Name)
							}
							continue
						}
						for _, n := range spec.Names {
							if n.Name != "_" {
								add(f, d, n.Name, f.dir+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}
	for _, f := range files {
		for _, d := range f.file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
				if typ := types[f.dir+"."+receiverType(fn)]; typ != nil {
					typ.own = append(typ.own, span{f.file, fn.Pos(), fn.End()})
				}
			}
		}
	}
	return decls
}

// references files every name each non-test file uses: a package-level
// name as pkg.Name (qualified through the file's imports, or bare inside
// its own package), and every selector also under its bare name, which is
// how methods are matched.
func references(t *testing.T, files []sourceFile) map[string][]span {
	pkgName := map[string]string{} // internal dir → declared package name
	for _, f := range files {
		pkgName[f.dir] = f.file.Name.Name
	}
	uses := map[string][]span{}
	for _, f := range files {
		imports := map[string]string{} // local name → module-relative dir
		for _, imp := range f.file.Imports {
			target := importTarget(t, imp)
			local := pkgName[target]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = target
		}
		file := f.file
		skip := map[*ast.Ident]bool{} // names that are not references
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				at := span{file: file, pos: n.Sel.Pos()}
				uses[n.Sel.Name] = append(uses[n.Sel.Name], at)
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
					key := imports[x.Name] + "." + n.Sel.Name
					uses[key] = append(uses[key], at)
					return false
				}
			case *ast.Ident:
				// Unresolved (declared in another file of the package)
				// or resolved to this file's top level.
				if !skip[n] && (n.Obj == nil || file.Scope.Objects[n.Name] == n.Obj) {
					key := f.dir + "." + n.Name
					uses[key] = append(uses[key], span{file: file, pos: n.Pos()})
				}
			}
			return true
		})
	}
	return uses
}

// TestEveryInternalNameHasACaller is the rule at identifier granularity:
// every top-level func, method, type, var and const in internal/ needs a
// reference from a non-test file outside its own text. A type's methods do
// not use the type, so a dead type takes its methods with it. Methods match
// any selector of the same name, which is conservative: a dead method that
// shares its name with a live one, or with a standard-library function,
// passes.
func TestEveryInternalNameHasACaller(t *testing.T) {
	files := nonTestFiles(t, 0)
	uses := references(t, files)
	var dead []string
	for _, d := range internalDecls(files) {
		method := d.name[strings.LastIndex(d.name, ".")+1:]
		if strings.Contains(d.name, ".") && (callerExempt[method] != "" || callerExempt[filepath.Base(d.pkg)+"."+d.name] != "") {
			continue
		}
		if !d.usedIn(uses) {
			dead = append(dead, d.pkg+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller: no non-test file names it outside its own text", d)
	}
}
