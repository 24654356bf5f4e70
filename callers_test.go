package cimrev

// The deletion rule, enforced (ROADMAP item 7): code that no non-test file
// calls is on no program's path — not a binary's, an example's, an
// experiment's or the benchmark's — and is deleted, not kept for its own
// tests. The one test code that counts is the root package's external test
// package: its runnable examples (Example* with // Output:, which go test
// runs and checks) in the example*_test.go files, the repository's only
// examples. The rule works on the repository type-checked with go/types,
// so a name is matched by the object it denotes, not by its spelling: one
// test per internal package, one per name and field declared in internal/,
// and one that runs the rule over the fixtures in testdata/callers.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// program is a tree of Go modules type-checked from source: every non-test
// file under root that the host's build constraints select, one package per
// directory, with import path module/<dir>, and the root's external test
// files as package module_test. The standard library comes from the
// compiler's export data.
type program struct {
	module string
	fset   *token.FileSet
	info   *types.Info
	pkgs   map[string]*sourcePackage // import path → package
	std    types.Importer
}

// sourcePackage is one directory's non-test files; dir is slash-separated
// and relative to the program's root.
type sourcePackage struct {
	dir   string
	files []*ast.File
	types *types.Package
}

// loadProgram parses and type-checks the tree under root. It skips dot
// directories, which hold build output (among it extracted parent trees
// under .bench_build), and testdata. The repository's second module,
// benchmark/ (cimrev/benchmark), fits the same path scheme.
func loadProgram(root, module string) (*program, error) {
	p := &program{
		module: module,
		fset:   token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs: map[string]*sourcePackage{},
	}
	p.std = importer.ForCompiler(p.fset, "gc", nil)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		parse := func(names []string, mode parser.Mode) (*sourcePackage, error) {
			pkg := &sourcePackage{dir: filepath.ToSlash(rel)}
			for _, name := range names {
				file, err := parser.ParseFile(p.fset, filepath.Join(path, name), nil, mode)
				if err != nil {
					return nil, err
				}
				pkg.files = append(pkg.files, file)
			}
			return pkg, nil
		}
		pkg, err := parse(bp.GoFiles, 0)
		if err != nil {
			return err
		}
		p.pkgs[p.importPath(pkg.dir)] = pkg
		if path == root && len(bp.XTestGoFiles) > 0 {
			examples, err := parse(bp.XTestGoFiles, parser.ParseComments)
			if err != nil {
				return err
			}
			for _, ex := range doc.Examples(examples.files...) {
				if ex.Output == "" && !ex.EmptyOutput {
					return fmt.Errorf("%s: Example%s has no // Output: comment, so go test never runs it", p.fset.Position(ex.Code.Pos()), ex.Name)
				}
			}
			for _, f := range examples.files {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
						if ok && strings.HasPrefix(fn.Name.Name, prefix) {
							return fmt.Errorf("%s: %s: the root's external test package holds examples only", p.fset.Position(fn.Pos()), fn.Name.Name)
						}
					}
				}
			}
			p.pkgs[module+"_test"] = examples
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range p.pkgs {
		if _, err := p.Import(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *program) importPath(dir string) string {
	if dir == "." {
		return p.module
	}
	return p.module + "/" + dir
}

// Import makes the program its own importer: its packages are checked from
// source on first import, everything else is the standard library.
func (p *program) Import(path string) (*types.Package, error) {
	pkg := p.pkgs[path]
	if pkg == nil {
		return p.std.Import(path)
	}
	if pkg.types == nil {
		conf := types.Config{Importer: p}
		checked, err := conf.Check(path, p.fset, pkg.files, p.info)
		if err != nil {
			return nil, err
		}
		pkg.types = checked
	}
	return pkg.types, nil
}

// internal lists the program's packages under internal/, by directory.
func (p *program) internal() []*sourcePackage {
	var pkgs []*sourcePackage
	for _, pkg := range p.pkgs {
		if strings.HasPrefix(pkg.dir, "internal/") {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].dir < pkgs[j].dir })
	return pkgs
}

var (
	repoOnce sync.Once
	repo     *program
	repoErr  error
)

func loadRepo(t *testing.T) *program {
	t.Helper()
	repoOnce.Do(func() { repo, repoErr = loadProgram(".", "cimrev") })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repo
}

func TestEveryInternalPackageHasACaller(t *testing.T) {
	p := loadRepo(t)
	imported := map[*types.Package]bool{}
	for _, pkg := range p.pkgs {
		for _, imp := range pkg.types.Imports() {
			imported[imp] = true
		}
	}
	pkgs := p.internal()
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages")
	}
	for _, pkg := range pkgs {
		if !imported[pkg.types] {
			t.Errorf("%s has no caller: no non-test file outside it imports it", pkg.dir)
		}
	}
}

// callerExempt lists the methods a caller reaches through a standard
// library interface that the standard library itself calls, the one
// method kept for its tests alone, and the one parameter kept for
// benchmark/'s calls alone.
var callerExempt = map[string]string{
	"String":             "fmt.Stringer",
	"Error":              "error",
	"Unwrap":             "errors.Is and errors.As",
	"ServeHTTP":          "http.Handler",
	"Len":                "sort.Interface",
	"Less":               "sort.Interface",
	"Swap":               "sort.Interface",
	"MarshalJSON":        "json.Marshaler",
	"noise.Source.Norm":  "the definition of a draw: the crossbar and fleet tests hold NormStride == to it",
	"serve.WithBatch #2": "the batching delay the work-conserving batcher ignores: benchmark/ still passes it (ROADMAP item 1(g))",
}

// declaration is one judged name: a func, method, type, var or const
// declared at the top level of a non-test file under internal/. A const
// group that uses iota is one declaration under all of its names.
type declaration struct {
	pkg  string         // internal/<pkg>
	name string         // Name, or Type.Method
	objs []types.Object // what a use must denote
	own  []ast.Node     // text whose references do not count: itself, and a type's methods
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

// declarations lists every name the rule judges.
func (p *program) declarations() []*declaration {
	var decls []*declaration
	typeDecls := map[types.Object]*declaration{} // a type → its declaration
	var methods []*ast.FuncDecl
	for _, pkg := range p.internal() {
		add := func(d ast.Decl, name string, objs ...types.Object) *declaration {
			decl := &declaration{pkg: pkg.dir, name: name, objs: objs, own: []ast.Node{d}}
			decls = append(decls, decl)
			return decl
		}
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						add(d, receiverNamed(recv.Type()).Obj().Name()+"."+fn.Name(), fn)
						methods = append(methods, d)
					} else if fn.Name() != "init" {
						add(d, fn.Name(), fn)
					}
				case *ast.GenDecl:
					var group *declaration
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[spec.Name]
							typeDecls[obj] = add(d, spec.Name.Name, obj)
						case *ast.ValueSpec:
							if d.Tok == token.CONST && (group != nil || usesIota(spec)) {
								if group == nil {
									group = add(d, spec.Names[0].Name+" (iota group)")
								}
								for _, n := range spec.Names {
									group.objs = append(group.objs, p.info.Defs[n])
								}
								continue
							}
							for _, n := range spec.Names {
								if n.Name != "_" {
									add(d, n.Name, p.info.Defs[n])
								}
							}
						}
					}
				}
			}
		}
	}
	for _, fn := range methods {
		recv := p.info.Defs[fn.Name].Type().(*types.Signature).Recv()
		if typ := typeDecls[receiverNamed(recv.Type()).Obj()]; typ != nil {
			typ.own = append(typ.own, fn)
		}
	}
	return decls
}

// receiverNamed is a method receiver's named type, through its pointer.
func receiverNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// origin maps a generic instance's method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// references files every use in the program under the object it denotes,
// and separately every use of an interface's method, which may reach any
// method that implements it.
func (p *program) references() (uses map[types.Object][]token.Pos, abstract map[*types.Func][]token.Pos) {
	uses = map[types.Object][]token.Pos{}
	abstract = map[*types.Func][]token.Pos{}
	for id, obj := range p.info.Uses {
		obj = origin(obj)
		uses[obj] = append(uses[obj], id.Pos())
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				abstract[fn] = append(abstract[fn], id.Pos())
			}
		}
	}
	return uses, abstract
}

// outside reports whether any of the positions lies outside the nodes.
func outside(at []token.Pos, own []ast.Node) bool {
next:
	for _, pos := range at {
		for _, n := range own {
			if n.Pos() <= pos && pos < n.End() {
				continue next
			}
		}
		return true
	}
	return false
}

// implements reports whether a method's receiver type, as a value or a
// pointer, satisfies the interface that declares m.
func implements(method *types.Func, m *types.Func) bool {
	if method.Name() != m.Name() {
		return false
	}
	iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	named := receiverNamed(method.Type().(*types.Signature).Recv().Type())
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

// writeTargets is every identifier that names a field only to store into
// it: an assignment's or range clause's target, an inc/dec, or a
// composite literal's key.
func writeTargets(files []*ast.File) map[*ast.Ident]bool {
	targets := map[*ast.Ident]bool{}
	target := func(x ast.Expr) {
		switch x := ast.Unparen(x).(type) {
		case *ast.SelectorExpr:
			targets[x.Sel] = true
		case *ast.Ident:
			targets[x] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, x := range n.Lhs {
					target(x)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, x := range []ast.Expr{n.Key, n.Value} {
						if x != nil {
							target(x)
						}
					}
				}
			case *ast.KeyValueExpr:
				target(n.Key)
			}
			return true
		})
	}
	return targets
}

// marshaled is every field encoding/json reads: the fields reachable from
// the static type of a value passed to json.Marshal, json.MarshalIndent or
// (*json.Encoder).Encode, where an interface stands for every named type of
// the program that implements it.
func (p *program) marshaled(files []*ast.File) map[*types.Var]bool {
	var named []*types.Named
	for _, pkg := range p.pkgs {
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	read := map[*types.Var]bool{}
	seen := map[types.Type]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if iface, ok := t.Underlying().(*types.Interface); ok {
				reach(iface)
			} else {
				reach(t.Underlying())
			}
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				f := t.Field(i)
				if reflect.StructTag(t.Tag(i)).Get("json") == "-" || !f.Exported() && !f.Embedded() {
					continue
				}
				read[f.Origin()] = true
				reach(f.Type())
			}
		case *types.Interface:
			for _, n := range named {
				if types.Implements(n, t) || types.Implements(types.NewPointer(n), t) {
					reach(n)
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
				return true
			}
			switch fn.FullName() {
			case "encoding/json.Marshal", "encoding/json.MarshalIndent", "(*encoding/json.Encoder).Encode":
				reach(p.info.TypeOf(call.Args[0]))
			}
			return true
		})
	}
	return read
}

// deadCode is the rule: the program's internal names that no non-test code
// uses, the fields of its internal struct types that no non-test code
// reads, and the parameters no non-test code reads (deadParams), one
// finding per line, sorted.
//
// A name is used when code outside its own text refers to the object it
// denotes; a type's methods are its own text, so a dead type takes its
// methods with it. A method is also used when code calls an interface
// method that its receiver type satisfies. A field is read by any
// reference except a store into it, and by encoding/json (marshaled). A
// field that only its own type's Validate or String reads is judged too,
// with its own finding: checking or printing a value nothing acts on keeps
// nothing alive. Embedded fields, which promote methods, are not judged.
func (p *program) deadCode() []string {
	var files []*ast.File
	for _, pkg := range p.pkgs {
		files = append(files, pkg.files...)
	}
	uses, abstract := p.references()
	var dead []string
	for _, d := range p.declarations() {
		if strings.Contains(d.name, ".") && (callerExempt[d.name[strings.LastIndex(d.name, ".")+1:]] != "" ||
			callerExempt[filepath.Base(d.pkg)+"."+d.name] != "") {
			continue
		}
		used := false
		for _, obj := range d.objs {
			used = used || outside(uses[obj], d.own)
			if fn, ok := obj.(*types.Func); ok {
				for m, at := range abstract {
					used = used || implements(fn, m) && outside(at, d.own)
				}
			}
		}
		if !used {
			dead = append(dead, d.pkg+": "+d.name+" has no caller: no non-test code outside its own text uses it")
		}
	}

	targets := writeTargets(files)
	marshaled := p.marshaled(files)
	readAt := map[*types.Var][]token.Pos{}
	for id, obj := range p.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !targets[id] {
			readAt[v.Origin()] = append(readAt[v.Origin()], id.Pos())
		}
	}
	selfChecks := map[types.Object][]ast.Node{} // a type → its Validate and String
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && (fn.Name.Name == "Validate" || fn.Name.Name == "String") {
				recv := receiverNamed(p.info.Defs[fn.Name].Type().(*types.Signature).Recv().Type()).Obj()
				selfChecks[recv] = append(selfChecks[recv], fn)
			}
		}
	}
	for _, pkg := range p.internal() {
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				switch {
				case f.Embedded() || marshaled[f]:
				case len(readAt[f]) == 0:
					dead = append(dead, pkg.dir+": "+name+"."+f.Name()+" is never read: non-test code only stores into it")
				case !outside(readAt[f], selfChecks[tn]):
					dead = append(dead, pkg.dir+": "+name+"."+f.Name()+" is read only by its type's own Validate or String: no other non-test code reads it")
				}
			}
		}
	}
	dead = append(dead, p.deadParams(files, uses)...)
	sort.Strings(dead)
	return dead
}

// interfaces lists every interface type a method may satisfy: those the
// program names or spells out, and those declared by the packages it
// imports (the standard library's io.Writer or http.Handler, which the
// standard library itself calls).
func (p *program) interfaces() []*types.Interface {
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			ifaces = append(ifaces, iface)
		}
	}
	for _, tv := range p.info.Types {
		add(tv.Type)
	}
	scopes := []*types.Scope{types.Universe}
	for _, pkg := range p.pkgs {
		scopes = append(scopes, pkg.types.Scope())
		for _, imp := range pkg.types.Imports() {
			scopes = append(scopes, imp.Scope())
		}
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return ifaces
}

// deadParams judges the parameters of every function and method declared
// in the program's non-test code, blank and unnamed ones included: a
// parameter is dead when no code reads it, nothing uses its function as a
// value (a func type, not the function, then fixes the signature), and no
// interface reaches the method (an interface fixes its signature too).
// Functions without a body are implemented in assembly and not judged.
func (p *program) deadParams(files []*ast.File, uses map[types.Object][]token.Pos) []string {
	called := map[*ast.Ident]bool{} // identifiers in a call's function position
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fun := ast.Unparen(call.Fun)
				if ix, ok := fun.(*ast.IndexExpr); ok {
					fun = ix.X
				} else if ix, ok := fun.(*ast.IndexListExpr); ok {
					fun = ix.X
				}
				switch fun := fun.(type) {
				case *ast.Ident:
					called[fun] = true
				case *ast.SelectorExpr:
					called[fun.Sel] = true
				}
			}
			return true
		})
	}
	asValue := map[types.Object]bool{}
	for id, obj := range p.info.Uses {
		if _, ok := obj.(*types.Func); ok && !called[id] {
			asValue[origin(obj)] = true
		}
	}
	ifaces := p.interfaces()
	reached := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		named := receiverNamed(recv.Type())
		for _, iface := range ifaces {
			for i := 0; i < iface.NumMethods(); i++ {
				if iface.Method(i).Name() == fn.Name() &&
					(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
					return true
				}
			}
		}
		return false
	}
	var dead []string
	for _, pkg := range p.pkgs {
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn := p.info.Defs[decl.Name].(*types.Func)
				if asValue[fn] || reached(fn) {
					continue
				}
				name := fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = receiverNamed(recv.Type()).Obj().Name() + "." + name
				}
				params := fn.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					v := params.At(i)
					if len(uses[v]) > 0 {
						continue
					}
					label := v.Name()
					if label == "" || label == "_" {
						label = fmt.Sprintf("#%d", i+1)
					}
					if callerExempt[path.Base(pkg.dir)+"."+name+" "+label] != "" {
						continue
					}
					dead = append(dead, pkg.dir+": "+name+" parameter "+label+" is never read: no code reads it, nothing uses the function as a value and no interface reaches it")
				}
			}
		}
	}
	return dead
}

// TestEveryInternalNameHasACaller is the rule over the repository: every
// top-level func, method, type, var and const in internal/ needs a use from
// a non-test file outside its own text, and every field of a struct
// declared there needs a non-test read.
func TestEveryInternalNameHasACaller(t *testing.T) {
	for _, d := range loadRepo(t).deadCode() {
		t.Error(d)
	}
}

// TestCallerRuleFixtures runs the rule over testdata/callers, whose
// internal package holds one case of each kind the rule must tell apart;
// the comments there say which are dead.
func TestCallerRuleFixtures(t *testing.T) {
	p, err := loadProgram(filepath.Join("testdata", "callers"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	const unread = " is never read: no code reads it, nothing uses the function as a value and no interface reaches it"
	want := []string{
		"internal/fix: Blank parameter #2" + unread,
		"internal/fix: Limits.Max is read only by its type's own Validate or String: no other non-test code reads it",
		"internal/fix: Local has no caller: no non-test code outside its own text uses it",
		"internal/fix: Local.self has no caller: no non-test code outside its own text uses it",
		"internal/fix: Offline.Run has no caller: no non-test code outside its own text uses it",
		"internal/fix: Record.Set parameter unused" + unread,
		"internal/fix: Record.written is never read: non-test code only stores into it",
		"internal/fix: Scale parameter unused" + unread,
	}
	if got := p.deadCode(); !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
