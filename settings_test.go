package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// optionStructs are the option structs whose fields callers may set. A
// field belongs here only while some non-test file outside the struct's
// own package sets it; a value that only defaulting code or tests set is a
// named constant where its decision lives (DESIGN.md, "Settings").
var optionStructs = []string{
	"softtimers/internal/kernel.Options",
	"softtimers/internal/core.Options",
	"softtimers/internal/nic.Config",
	"softtimers/internal/httpserv.Config",
	"softtimers/internal/httpserv.TestbedConfig",
	"softtimers/internal/httpserv.ClientHostConfig",
	"softtimers/internal/httpserv.ClientGen",
	"softtimers/internal/topology.SwitchSpec",
	"softtimers/internal/topology.FabricSpec",
	"softtimers/internal/topology.WireSpec",
	"softtimers/internal/host.Config",
	"softtimers/internal/topology.HostSpec",
	"softtimers/internal/topology.Spec",
	"softtimers/internal/emu.Config",
}

// keptUnset are option fields kept although nothing outside their package
// sets them, each with its reason.
var keptUnset = map[string]string{
	"httpserv.TestbedConfig.Faults": "ROADMAP's paper-shapes-under-faults item runs the paper rigs under a fault plan",
	"nic.Config.TxComplInterrupts":  "the modeling question of ROADMAP's interrupt-pair item; tests reach the transmit-completion interrupt path",
	"nic.Config.IdleInterrupts":     "the modeling question of ROADMAP's interrupt-pair item; tests reach the idle re-enable path",
}

// TestOptionFieldsHaveSetters parses the non-test Go of the repository and
// of bench/ and fails on every exported field of optionStructs that no
// non-test file outside the struct's own package sets, by a keyed
// composite literal, an assignment or an address taken. A field whose type
// is a struct of scalars from the same package that is not itself listed
// (a cost table) is checked field by field.
func TestOptionFieldsHaveSetters(t *testing.T) {
	pkgs := loadTree(t)
	type leaf struct {
		name   string
		path   []*types.Var // the fields from the option struct to the leaf
		within string       // the option struct's package
	}
	var leaves []leaf
	for _, qual := range optionStructs {
		dot := strings.LastIndex(qual, ".")
		pkg := pkgs[qual[:dot]]
		if pkg == nil {
			t.Fatalf("no package for %s", qual)
		}
		obj := pkg.types.Scope().Lookup(qual[dot+1:])
		if obj == nil {
			t.Fatalf("%s is not defined", qual)
		}
		short := pkg.types.Name() + "." + obj.Name()
		st := obj.Type().Underlying().(*types.Struct)
		for i := range st.NumFields() {
			f := st.Field(i)
			if !f.Exported() {
				continue // only the struct's own package can set it
			}
			if sub, ok := scalarStruct(f.Type(), pkg.types); ok && !slices.Contains(optionStructs, f.Type().String()) {
				for j := range sub.NumFields() {
					g := sub.Field(j)
					leaves = append(leaves, leaf{short + "." + f.Name() + "." + g.Name(), []*types.Var{f, g}, pkg.path})
				}
				continue
			}
			leaves = append(leaves, leaf{short + "." + f.Name(), []*types.Var{f}, pkg.path})
		}
	}

	// setBy records, per field object, the packages whose non-test files
	// set it.
	setBy := map[*types.Var]map[string]bool{}
	mark := func(v *types.Var, pkgPath string) {
		if setBy[v] == nil {
			setBy[v] = map[string]bool{}
		}
		setBy[v][pkgPath] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := pkg.info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if obj, ok := pkg.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								mark(obj, pkg.path)
							}
						} else if i < st.NumFields() {
							mark(st.Field(i), pkg.path)
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							markSelected(pkg.info, lhs, func(v *types.Var) { mark(v, pkg.path) })
						}
					}
				case *ast.IncDecStmt:
					markSelected(pkg.info, n.X, func(v *types.Var) { mark(v, pkg.path) })
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSelected(pkg.info, n.X, func(v *types.Var) { mark(v, pkg.path) })
					}
				}
				return true
			})
		}
	}

	var unset []string
	for _, l := range leaves {
		set := true
		for _, f := range l.path {
			outside := false
			for p := range setBy[f] {
				if p != l.within {
					outside = true
				}
			}
			set = set && outside
		}
		if _, kept := keptUnset[l.name]; set || kept {
			continue
		}
		unset = append(unset, l.name)
	}
	for name := range keptUnset {
		found := false
		for _, l := range leaves {
			found = found || l.name == name
		}
		if !found {
			t.Errorf("keptUnset names %s, which is not a field of a checked option struct", name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: no non-test file outside its package sets it; make it a named constant", name)
	}
	if len(unset) > 0 {
		t.Logf("%d option fields have no outside setter", len(unset))
	}
}

// stdInterfaceMethods are the method names of standard-library interfaces
// the tree's types satisfy (fmt.Stringer, error, json.Marshaler,
// sort.Interface, heap.Interface, io.Writer, ...); a method by one of these
// names may be called only through the interface.
var stdInterfaceMethods = []string{
	"String", "Error", "Unwrap", "Format",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "Close", "ServeHTTP",
}

// keptUncalled are exported functions and methods under internal/ kept
// although no non-test file references them, each with its reason: another
// package's tests call it, or an open ROADMAP item names it as its next
// caller.
var keptUncalled = map[string]string{
	"sim.Engine.At":                      "other packages' tests (core, emu, kernel, nic, experiments) schedule at absolute times through it",
	"netstack.Arena.Live":                "topology, experiments and tcp tests check that every packet went home through it",
	"stats.Histogram.Bucket":             "metrics' tests read widened bucket counts through it",
	"stats.Histogram.SetBucketForTest":   "metrics' tests set counts near 2^32 through it",
	"stats.Online.N":                     "httpserv's tests check response-time and paced-interval counts through it",
	"metrics.SeriesSnapshot.WriteJSON":   "experiments' TestFleetTelemetryGolden hashes fleet series through it",
	"netstack.WANEmulator.InstallFaults": "ROADMAP's paper-shapes-under-faults item runs the Tables 6/7 WAN rig under a fault plan through it",
}

// TestExportedFuncsHaveCallers fails on every exported function or method
// declared in a non-test file under internal/ that no non-test file of the
// tree references (cmd/, examples/, bench/ and its own package all count; a
// function's references to itself do not). Methods whose name an interface
// in the tree or stdInterfaceMethods declares are exempt: an interface call
// names the interface's method, not the concrete one.
func TestExportedFuncsHaveCallers(t *testing.T) {
	pkgs := loadTree(t)
	viaInterface := map[string]bool{}
	for _, name := range stdInterfaceMethods {
		viaInterface[name] = true
	}
	declOf := map[*types.Func]*ast.FuncDecl{} // the exported ones under internal/
	for path, pkg := range pkgs {
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					iface := pkg.info.TypeOf(it).Underlying().(*types.Interface)
					for i := range iface.NumMethods() {
						viaInterface[iface.Method(i).Name()] = true
					}
				}
				return true
			})
			if !strings.HasPrefix(path, "softtimers/internal/") {
				continue
			}
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					declOf[pkg.info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}

	called := map[*types.Func]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := declOf[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
				continue // a call to itself
			}
			called[fn] = true
		}
	}

	var uncalled []string
	declared := map[string]bool{}
	for fn := range declOf {
		name := funcName(fn)
		declared[name] = true
		_, kept := keptUncalled[name]
		switch {
		case fn.Type().(*types.Signature).Recv() != nil && viaInterface[fn.Name()]:
			if kept {
				t.Errorf("keptUncalled names %s, which an interface declares; drop the entry", name)
			}
		case called[fn] && kept:
			t.Errorf("keptUncalled names %s, which has a caller now; drop the entry", name)
		case !called[fn] && !kept:
			uncalled = append(uncalled, name)
		}
	}
	for name := range keptUncalled {
		if !declared[name] {
			t.Errorf("keptUncalled names %s, which is not an exported function or method under internal/", name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s: no non-test file references it; delete it", name)
	}
	if len(uncalled) > 0 {
		t.Logf("%d exported functions and methods have no caller", len(uncalled))
	}
}

// funcName names fn as the documents cite it: pkg.Func or pkg.Type.Method.
func funcName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		name = typ.(*types.Named).Obj().Name() + "." + name
	}
	return fn.Pkg().Name() + "." + name
}

// scalarStruct reports whether t is a struct type declared in pkg whose
// fields are all of basic underlying type, and returns it.
func scalarStruct(t types.Type, pkg *types.Package) (*types.Struct, bool) {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pkg {
		return nil, false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	for i := range st.NumFields() {
		if _, ok := st.Field(i).Type().Underlying().(*types.Basic); !ok {
			return nil, false
		}
	}
	return st, true
}

// markSelected calls mark for each field selected on the way to the
// operand x, so x.A.B = v sets both A and B.
func markSelected(info *types.Info, x ast.Expr, mark func(*types.Var)) {
	for {
		switch e := x.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				mark(sel.Obj().(*types.Var))
			}
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		default:
			return
		}
	}
}

// treePackage is one type-checked package of the tree: its non-test files.
type treePackage struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// treeLoader type-checks the repository's packages from source, importing
// the standard library from source too.
type treeLoader struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*treePackage
	std   types.Importer
	fails []error
}

func (l *treeLoader) Import(path string) (*types.Package, error) {
	if dir, ok := l.dirs[path]; ok {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

func (l *treeLoader) load(path, dir string) (*treePackage, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &treePackage{path: path, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.fails = append(l.fails, err) }}
	p.types, _ = conf.Check(path, l.fset, p.files, p.info)
	l.pkgs[path] = p
	return p, nil
}

// loadTree type-checks every package with non-test Go files under the
// repository root, bench/ included, keyed by import path. The tree is
// checked once per test binary and shared by every caller.
func loadTree(t *testing.T) map[string]*treePackage {
	t.Helper()
	pkgs, err := sharedTree()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

var sharedTree = sync.OnceValues(func() (map[string]*treePackage, error) {
	fset := token.NewFileSet()
	l := &treeLoader{fset: fset, dirs: map[string]string{}, pkgs: map[string]*treePackage{},
		std: importer.ForCompiler(fset, "source", nil)}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			l.dirs["softtimers/"+filepath.ToSlash(path)] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path, dir := range l.dirs {
		if _, err := l.load(path, dir); err != nil {
			return nil, err
		}
	}
	if len(l.fails) > 0 {
		return nil, fmt.Errorf("type-checking the tree: %v (and %d more)", l.fails[0], len(l.fails)-1)
	}
	return l.pkgs, nil
})
