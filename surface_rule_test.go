// The surface rule: an exported name under internal/ is API only if code
// uses it. Every exported func, type, var, method and untagged struct field
// declared there must be referenced by non-test code somewhere in the tree
// (bench/, cmd/ and examples/ count) or by the tests of a different package,
// which keeps harness exports such as sim.Kernel.StartTrace. A name only its
// own package's tests reach is test scaffolding in the public surface:
// delete it, unexport it, or have the test read the field. Exempt are
// constants, embedded fields, fields with a struct tag (read by reflection),
// and methods that satisfy an interface method: the method's type implements
// an interface with that method which non-test code declares, names, or finds
// in a standard package it imports.
package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// srcPkg is one directory of Go source: its import path and its files.
type srcPkg struct {
	path  string
	files map[string][]byte
}

func TestExportedSurface(t *testing.T) {
	// The checker must find exactly the one test-only export of a small
	// package before its silence on the tree means anything.
	probe := []srcPkg{
		{"repro/internal/a", map[string][]byte{
			"a.go": []byte(`package a

import "fmt"

const Limit = 1

type T struct {
	Used, Lit int
	Tagged    int ` + "`json:\"t\"`" + `
}

func (T) String() string { return fmt.Sprint(Limit) }
func (T) Helper() int    { return 0 }
func TestOnly() int      { return 1 }
func Used() T            { return T{} }
`),
			"a_test.go": []byte(`package a

func use() int { return TestOnly() + Used().Lit }
`),
		}},
		{"repro/internal/b", map[string][]byte{
			"b_test.go": []byte(`package b

import "repro/internal/a"

var _ = a.T{}.Helper()
`),
		}},
		{"repro/cmd/c", map[string][]byte{
			"main.go": []byte(`package main

import "repro/internal/a"

func main() { _ = a.Used().Used; _ = a.T{1, 2, 3} }
`),
		}},
	}
	got, err := testOnlySurface(probe, "repro/internal/")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.TestOnly"}; !slices.Equal(got, want) {
		t.Fatalf("checker on the probe package found %v, want %v", got, want)
	}

	pkgs, err := readTree(".")
	if err != nil {
		t.Fatal(err)
	}
	got, err = testOnlySurface(pkgs, "repro/internal/")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		t.Errorf("%s is exported but only its own package's tests use it", name)
	}
}

// readTree collects every package directory under root. bench/ is its own
// module, repro/bench; hidden directories (the benchmark's build cache
// among them) and testdata are skipped.
func readTree(root string) ([]srcPkg, error) {
	byDir := map[string]*srcPkg{}
	var order []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		sp := byDir[dir]
		if sp == nil {
			sp = &srcPkg{path: path.Join("repro", dir), files: map[string][]byte{}}
			byDir[dir] = sp
			order = append(order, dir)
		}
		src, err := os.ReadFile(p)
		sp.files[p] = src
		return err
	})
	pkgs := make([]srcPkg, len(order))
	for i, dir := range order {
		pkgs[i] = *byDir[dir]
	}
	return pkgs, err
}

// testOnlySurface type-checks every package in pkgs, each with and without
// its tests, and returns the exported names declared under scope that no
// non-test file and no other package's test references, as pkg.Name,
// pkg.Type.Method or pkg.Type.Field.
func testOnlySurface(pkgs []srcPkg, scope string) ([]string, error) {
	fset := token.NewFileSet()
	type unit struct{ src, inTest, xTest []*ast.File }
	units := map[string]*unit{}
	isTest := map[*token.File]bool{}
	owner := map[*token.File]string{}
	for _, sp := range pkgs {
		u := &unit{}
		units[sp.path] = u
		names := make([]string, 0, len(sp.files))
		for name := range sp.files {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, sp.files[name], parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			tf := fset.File(f.Pos())
			owner[tf] = sp.path
			test := strings.HasSuffix(name, "_test.go")
			isTest[tf] = test
			switch {
			case !test:
				u.src = append(u.src, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				u.xTest = append(u.xTest, f)
			default:
				u.inTest = append(u.inTest, f)
			}
		}
	}

	std := importer.Default()
	checked := map[string]*types.Package{}
	ifaces := map[*types.Interface]bool{}
	used := map[token.Pos]bool{}
	var firstErr error
	var check func(path string, files []*ast.File, withTests bool) *types.Package
	imp := importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		if u, ok := units[p]; ok {
			pkg := check(p, u.src, false)
			checked[p] = pkg
			return pkg, nil
		}
		pkg, err := std.Import(p)
		checked[p] = pkg
		return pkg, err
	})
	check = func(p string, files []*ast.File, withTests bool) *types.Package {
		info := &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp, Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}}
		pkg, _ := conf.Check(p, fset, files, info)
		if !withTests {
			collectIfaces(pkg.Scope(), ifaces)
			for _, dep := range pkg.Imports() {
				if units[dep.Path()] == nil {
					collectIfaces(dep.Scope(), ifaces)
				}
			}
		}
		// A use counts unless it sits in a test file of the declaring package.
		counts := func(at token.Pos, obj types.Object) bool {
			tf := fset.File(at)
			return obj.Pkg() != nil && (!isTest[tf] || owner[tf] != obj.Pkg().Path())
		}
		for id, obj := range info.Uses {
			if counts(id.Pos(), obj) {
				used[obj.Pos()] = true
			}
		}
		for expr, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !withTests {
				ifaces[it] = true
			}
			// An unkeyed composite literal uses every field it fills.
			lit, ok := expr.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				continue
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				continue
			}
			if st, ok := tv.Type.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if counts(lit.Pos(), st.Field(i)) {
						used[st.Field(i).Pos()] = true
					}
				}
			}
		}
		return pkg
	}

	paths := make([]string, 0, len(units))
	for p := range units {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		u := units[p]
		if len(u.src) > 0 {
			imp.Import(p)
		}
		if len(u.inTest) > 0 {
			check(p, append(slices.Clip(u.src), u.inTest...), true)
		}
		if len(u.xTest) > 0 {
			check(p+"_test", u.xTest, true)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// A method satisfies an interface method when its type, or a pointer to
	// it, implements an interface that has the method.
	byMethod := map[string][]*types.Interface{}
	for it := range ifaces {
		for i := range it.NumMethods() {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	satisfies := func(named *types.Named, m *types.Func) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		return slices.ContainsFunc(byMethod[m.Name()], func(it *types.Interface) bool {
			return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
		})
	}
	var out []string
	flag := func(obj types.Object, name string) {
		if obj.Exported() && !used[obj.Pos()] {
			out = append(out, obj.Pkg().Name()+"."+name)
		}
	}
	for _, p := range paths {
		pkg := checked[p]
		if pkg == nil || !strings.HasPrefix(p, scope) {
			continue
		}
		sc := pkg.Scope()
		for _, name := range sc.Names() {
			switch obj := sc.Lookup(name).(type) {
			case *types.Func, *types.Var:
				flag(obj, name)
			case *types.TypeName:
				flag(obj, name)
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := range named.NumMethods() {
					if m := named.Method(i); !satisfies(named, m) {
						flag(m, name+"."+m.Name())
					}
				}
				if st, ok := named.Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						if f := st.Field(i); !f.Embedded() && st.Tag(i) == "" {
							flag(f, name+"."+f.Name())
						}
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// collectIfaces adds every interface with methods that scope declares.
func collectIfaces(scope *types.Scope, out map[*types.Interface]bool) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out[it] = true
			}
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
