package butterfly

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Exported declarations in internal/ that production code never names,
// kept on purpose. A package or declaration entry that excuses nothing
// fails the test, so those lists cannot outlive what they excuse.
var (
	// Packages whose whole export list is kept.
	keptPackages = map[string]string{
		"dense": "the paper's specification, equations (7), (19) and (25), run as the test oracle",
	}
	// Single declarations, as package.Name or package.Type.Method.
	keptDecls = map[string]string{
		"gen.Star":                    "test fixture: the star graph, zero butterflies by construction",
		"gen.BicliqueChain":           "test fixture: chained bicliques with a closed-form count",
		"gen.Cycle":                   "test fixture: the cycle C(2k), one butterfly at k = 2 and none above",
		"sparse.FromDense":            "test fixture: builds CSR operands from the dense oracle's matrices",
		"sparse.MxMMasked":            "called by core's edge-support SpGEMM oracle in its tests",
		"flight.Group.Waiting":        "test hook: lets tests wait for coalesced followers without sleeping",
		"core.BloomIndex.Blooms":      "test hook: bloom count checked against the priority sweep",
		"core.BloomIndex.Wedges":      "test hook: wedge count checked against the priority sweep",
		"core.BloomIndex.Butterflies": "test hook: the index's count checked against the family count and peel's supports",
		"core.BloomIndex.Bytes":       "test hook: index size checked in closed form and reported by peel's benchmark",
		"graph.Bipartite.Validate":    "test hook: checks that adj and adjT hold one graph, for gen and dynamic tests",
		"obsv.Histogram.Count":        "test hook: cluster tests count the merge observations",
	}
	// Methods that satisfy a standard-library interface, called through
	// it from inside the library, where this test cannot see the call.
	// Such a method is live while its receiver type is. A name here
	// may match no method.
	interfaceMethods = map[string]string{
		"Less":          "heap.Interface",
		"Swap":          "heap.Interface",
		"Push":          "heap.Interface",
		"Pop":           "heap.Interface",
		"UnmarshalJSON": "json.Unmarshaler",
		"Unwrap":        "errors.Unwrap",
		"String":        "fmt.Stringer",
		"Error":         "error",
		"ServeHTTP":     "http.Handler",
	}
)

// TestNoTestOnlyExports fails for every exported package-level
// function, method, var, const or type in internal/ that the live
// non-test Go of either module (this one and benchmark/) never uses
// outside its own declaration. Such a declaration is used by tests
// only: delete it with its tests, move it into a _test.go file, or list
// it above with the reason it stays.
//
// Uses are resolved by go/types, so a method is matched by its
// receiver: calling one type's String does not keep another's alive. A
// call through an interface uses the method of every module type that
// implements the interface. The standard library is type-checked from
// source, so the test needs no build cache or network.
//
// Liveness is transitive: the check iterates to a fixpoint in which a
// use inside declarations already found dead is no use, so an exported
// A that nothing calls takes down an exported B that only A calls.
// Allowlisted declarations stay live and count as users.
func TestNoTestOnlyExports(t *testing.T) {
	m := loadModules(t)

	type decl struct {
		key, pos string
		obj      types.Object
		unit     ast.Node        // the FuncDecl or spec that declares obj
		recv     *types.TypeName // the receiver type of a method
	}
	var decls []decl
	// users[obj] holds the declaring unit — a function or method, or
	// one spec of a var, const or type declaration — around each use
	// of obj. A method's receiver does not use its type.
	users := map[types.Object][]ast.Node{}
	var ifaceUses []ifaceUse
	for _, p := range m.pkgs {
		pkg, inInternal := strings.CutPrefix(p.dir, "internal/")
		for _, f := range p.files {
			for _, dd := range f.Decls {
				var units []ast.Node
				var skip ast.Node
				switch x := dd.(type) {
				case *ast.FuncDecl:
					units = []ast.Node{x}
					obj := m.info.Defs[x.Name]
					if x.Recv == nil {
						if inInternal && x.Name.IsExported() {
							decls = append(decls, decl{pkg + "." + x.Name.Name, m.pos(x.Name), obj, x, nil})
						}
						break
					}
					skip = x.Recv
					recv := namedOf(obj.(*types.Func).Type().(*types.Signature).Recv().Type()).Obj()
					if inInternal && x.Name.IsExported() {
						decls = append(decls, decl{pkg + "." + recv.Name() + "." + x.Name.Name, m.pos(x.Name), obj, x, recv})
					}
				case *ast.GenDecl:
					for _, spec := range x.Specs {
						units = append(units, spec)
						var names []*ast.Ident
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							names = sp.Names
						case *ast.TypeSpec:
							names = []*ast.Ident{sp.Name}
						}
						for _, name := range names {
							if inInternal && name.IsExported() {
								decls = append(decls, decl{pkg + "." + name.Name, m.pos(name), m.info.Defs[name], spec, nil})
							}
						}
					}
				}
				for _, unit := range units {
					ast.Inspect(unit, func(n ast.Node) bool {
						if n == skip {
							return false
						}
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						obj := origin(m.info.Uses[id])
						if obj == nil {
							return true
						}
						users[obj] = append(users[obj], unit)
						if fn, ok := obj.(*types.Func); ok {
							if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
								ifaceUses = append(ifaceUses, ifaceUse{fn, unit})
							}
						}
						return true
					})
				}
			}
		}
	}
	// A call through an interface uses every module method that
	// implements it.
	impls := map[*types.Func][]types.Object{}
	for _, u := range ifaceUses {
		objs, ok := impls[u.method]
		if !ok {
			objs = m.implementers(u.method)
			impls[u.method] = objs
		}
		for _, obj := range objs {
			users[obj] = append(users[obj], u.unit)
		}
	}

	excused := func(d decl) string {
		pkg := strings.SplitN(d.key, ".", 2)[0]
		switch {
		case keptPackages[pkg] != "":
			return pkg
		case keptDecls[d.key] != "":
			return d.key
		}
		return ""
	}
	// A unit is dead once every exported declaration in it is; its
	// uses then count for nothing.
	liveDecls := map[ast.Node]int{}
	for _, d := range decls {
		liveDecls[d.unit]++
	}
	deadUnit := map[ast.Node]bool{}
	usedBy := func(obj types.Object, self ast.Node) bool {
		for _, u := range users[obj] {
			if u != self && !deadUnit[u] {
				return true
			}
		}
		return false
	}
	used := func(d decl) bool {
		if usedBy(d.obj, d.unit) {
			return true
		}
		return d.recv != nil && interfaceMethods[d.obj.Name()] != "" && usedBy(d.recv, d.unit)
	}
	isDead := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if isDead[i] || excused(d) != "" || used(d) {
				continue
			}
			isDead[i], changed = true, true
			if liveDecls[d.unit]--; liveDecls[d.unit] == 0 {
				deadUnit[d.unit] = true
			}
		}
	}

	matched := map[string]bool{}
	var dead []string
	for i, d := range decls {
		if isDead[i] {
			dead = append(dead, d.pos+": "+d.key)
		} else if e := excused(d); e != "" && !used(d) {
			matched[e] = true
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s is exported but only tests use it", s)
	}
	for _, list := range []map[string]string{keptPackages, keptDecls} {
		for k := range list {
			if !matched[k] {
				t.Errorf("allowlist entry %q excuses no test-only export; remove it", k)
			}
		}
	}
}

// ifaceUse is a use of an interface method inside unit.
type ifaceUse struct {
	method *types.Func
	unit   ast.Node
}

// modPkg is one package of the non-test Go of either module.
type modPkg struct {
	dir   string // slash-separated, relative to the repository root
	files []*ast.File
	types *types.Package
}

// modules holds both modules' packages, type-checked into one Info.
type modules struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*modPkg // by import path
	std   types.Importer
	named []*types.Named // every package-level non-interface type
}

// loadModules parses the non-test Go files of every package under the
// repository root, benchmark/ included (its module path is
// butterfly/benchmark, so every import path is "butterfly" plus the
// directory), and type-checks them.
func loadModules(t *testing.T) *modules {
	t.Helper()
	// The standard library's source importer type-checks the pure-Go
	// files only, so no C toolchain is needed.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &modules{
		fset: fset,
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*modPkg{},
		std:  importer.ForCompiler(fset, "source", nil),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		dir := filepath.ToSlash(path)
		p := &modPkg{dir: dir}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		importPath := "butterfly"
		if dir != "." {
			importPath += "/" + dir
		}
		m.pkgs[importPath] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.pkgs {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import type-checks a module package on first use and hands every
// other path to the standard library's source importer.
func (m *modules) Import(path string) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, p.files, m.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
				m.named = append(m.named, n)
			}
		}
	}
	return pkg, nil
}

// implementers returns the methods, declared on module types, that a
// call of interface method fn can dispatch to.
func (m *modules) implementers(fn *types.Func) []types.Object {
	iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var out []types.Object
	for _, n := range m.named {
		var t types.Type = n
		if !types.Implements(t, iface) {
			if t = types.NewPointer(n); !types.Implements(t, iface) {
				continue
			}
		}
		if obj, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name()); obj != nil {
			out = append(out, origin(obj))
		}
	}
	return out
}

// pos renders an identifier's position.
func (m *modules) pos(id *ast.Ident) string { return m.fset.Position(id.Pos()).String() }

// origin maps a method or field of an instantiated generic type back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch x := obj.(type) {
	case *types.Func:
		return x.Origin()
	case *types.Var:
		return x.Origin()
	}
	return obj
}

// namedOf returns the named type of a method receiver, through a
// pointer.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}
