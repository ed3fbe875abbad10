package butterfly

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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
		"gen.Star":               "test fixture: the star graph, zero butterflies by construction",
		"gen.BicliqueChain":      "test fixture: chained bicliques with a closed-form count",
		"gen.Cycle":              "test fixture: the cycle C(2k), one butterfly at k = 2 and none above",
		"sparse.FromDense":       "test fixture: builds CSR operands from the dense oracle's matrices",
		"sparse.MxMMasked":       "called by core's edge-support SpGEMM oracle in its tests",
		"flight.Group.Waiting":   "test hook: lets tests wait for coalesced followers without sleeping",
		"core.BloomIndex.Blooms": "test hook: bloom count checked against the priority sweep",
		"core.BloomIndex.Wedges": "test hook: wedge count checked against the priority sweep",
	}
	// Methods that satisfy a standard-library interface, called through
	// it. A name here is excused on any receiver, so it may match none.
	interfaceMethods = map[string]string{
		"Less":          "heap.Interface",
		"UnmarshalJSON": "json.Unmarshaler",
		"Unwrap":        "errors.Unwrap",
		"String":        "fmt.Stringer",
		"Error":         "error",
	}
)

// TestNoTestOnlyExports fails for every exported package-level
// function, method, var, const or type in internal/ whose name appears
// as an identifier nowhere in the live non-test Go of either module
// (this one and benchmark/) outside its own declaration. Such a
// declaration is named by tests only: delete it with its tests, move
// it into a _test.go file, or list it above with the reason it stays.
//
// Liveness is transitive: the check iterates to a fixpoint in which a
// name used only inside declarations already found dead is dead too,
// so an exported A that nothing calls takes down an exported B that
// only A calls. Allowlisted declarations stay live and count as users.
// Methods are still matched by name only, not by receiver type: a dead
// method escapes while a same-named method of another type is called.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, pos string
		name     *ast.Ident
		unit     ast.Node // the FuncDecl or spec that declares name
		method   bool
	}
	var decls []decl
	// users[name] holds the declaring unit — a function or method, or
	// one spec of a var, const or type declaration — around each
	// identifier with that name. The names a unit declares are not
	// uses, even of a same-named method on another type.
	users := map[string][]ast.Node{}
	record := func(unit ast.Node, declared ...*ast.Ident) {
		ast.Inspect(unit, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !slices.Contains(declared, id) {
				users[id.Name] = append(users[id.Name], unit)
			}
			return true
		})
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, inInternal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		add := func(key string, name *ast.Ident, unit ast.Node, method bool) {
			if inInternal && name.IsExported() {
				decls = append(decls, decl{pkg + "." + key, fset.Position(name.Pos()).String(), name, unit, method})
			}
		}
		for _, dd := range f.Decls {
			switch x := dd.(type) {
			case *ast.FuncDecl:
				key := x.Name.Name
				if x.Recv != nil {
					key = recvName(x.Recv.List[0].Type) + "." + key
				}
				add(key, x.Name, x, x.Recv != nil)
				record(x, x.Name)
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					var names []*ast.Ident
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						names = sp.Names
					case *ast.TypeSpec:
						names = []*ast.Ident{sp.Name}
					}
					for _, name := range names {
						add(name.Name, name, spec, false)
					}
					record(spec, names...)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	excused := func(d decl) string {
		pkg := strings.SplitN(d.key, ".", 2)[0]
		switch {
		case keptPackages[pkg] != "":
			return pkg
		case keptDecls[d.key] != "":
			return d.key
		case d.method && interfaceMethods[d.name.Name] != "":
			return "interface method"
		}
		return ""
	}
	// A unit is dead once every exported declaration in it is; its
	// identifiers then use nothing.
	liveDecls := map[ast.Node]int{}
	for _, d := range decls {
		liveDecls[d.unit]++
	}
	deadUnit := map[ast.Node]bool{}
	used := func(d decl) bool {
		for _, u := range users[d.name.Name] {
			if u != d.unit && !deadUnit[u] {
				return true
			}
		}
		return false
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
		t.Errorf("%s is exported but only tests name it", s)
	}
	for _, list := range []map[string]string{keptPackages, keptDecls} {
		for k := range list {
			if !matched[k] {
				t.Errorf("allowlist entry %q excuses no test-only export; remove it", k)
			}
		}
	}
}

// recvName returns the type name of a method receiver, without pointer
// or type parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
