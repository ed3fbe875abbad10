package butterfly

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	// Single functions and methods, as package.Func or package.Type.Method.
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

// TestNoTestOnlyExports fails for every exported function or method in
// internal/ whose name appears as an identifier nowhere in the non-test
// Go of either module (this one and benchmark/) outside its own
// declaration. Such a declaration is called by tests only: delete it
// with its tests, move it into a _test.go file, or list it above with
// the reason it stays.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, pos string
		node     *ast.FuncDecl
		method   bool
	}
	var decls []decl
	// users[name] holds the top-level declaration around each identifier
	// with that name; nil for identifiers outside any function. The name
	// a function or method declares is not a use, even of a same-named
	// method on another type.
	users := map[string][]*ast.FuncDecl{}
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
		for _, dd := range f.Decls {
			fn, _ := dd.(*ast.FuncDecl)
			if fn != nil && inInternal && fn.Name.IsExported() {
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, fset.Position(fn.Pos()).String(), fn, fn.Recv != nil})
			}
			ast.Inspect(dd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && (fn == nil || id != fn.Name) {
					users[id.Name] = append(users[id.Name], fn)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	matched := map[string]bool{}
	var dead []string
	for _, d := range decls {
		used := false
		for _, u := range users[d.node.Name.Name] {
			if u != d.node {
				used = true
				break
			}
		}
		if used {
			continue
		}
		pkg := strings.SplitN(d.key, ".", 2)[0]
		switch {
		case keptPackages[pkg] != "":
			matched[pkg] = true
		case keptDecls[d.key] != "":
			matched[d.key] = true
		case d.method && interfaceMethods[d.node.Name.Name] != "":
		default:
			dead = append(dead, d.pos+": "+d.key)
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
