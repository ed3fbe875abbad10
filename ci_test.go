package butterfly

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunListsNameTests fails for every name in a -run or -fuzz list
// of a `go test` step in .github/workflows/ci.yml that is not a Test or
// Fuzz function of the package the step runs: a renamed or deleted
// test would otherwise leave the step green while it runs nothing.
// `-run xxx` beside -bench matches nothing on purpose and is skipped.
func TestCIRunListsNameTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	workDir := regexp.MustCompile(`^\s*working-directory:\s*(\S+)`)
	ident := regexp.MustCompile(`^(Test|Fuzz)\w*$`)
	funcs := map[string]map[string]bool{} // package dir → top-level test funcs
	wd, checked := ".", 0
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "- ") {
			wd = "."
		}
		if m := workDir.FindStringSubmatch(line); m != nil {
			wd = m[1]
		}
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var names, pkgs []string
		bench := false
		fields := strings.Fields(strings.ReplaceAll(cmd, "'", ""))
		for j, f := range fields {
			switch {
			case (f == "-run" || f == "-fuzz") && j+1 < len(fields):
				names = append(names, strings.Split(strings.Trim(fields[j+1], "^$"), "|")...)
			case f == "-bench":
				bench = true
			case strings.HasPrefix(f, "./"):
				pkgs = append(pkgs, filepath.Join(wd, f))
			}
		}
		slices.Sort(names)
		names = slices.Compact(names)
		if bench && len(names) == 1 && names[0] == "xxx" {
			continue
		}
		for _, pkg := range pkgs {
			if strings.HasSuffix(pkg, "...") {
				if len(names) > 0 {
					t.Errorf("ci.yml:%d: -run over %s names no single package", i+1, pkg)
				}
				continue
			}
			if funcs[pkg] == nil {
				funcs[pkg] = testFuncs(t, pkg)
			}
			for _, name := range names {
				checked++
				if !ident.MatchString(name) || !funcs[pkg][name] {
					t.Errorf("ci.yml:%d: %q is no Test or Fuzz function in %s", i+1, name, pkg)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run names in ci.yml")
	}
}

// testFuncs returns the names of the top-level functions declared in
// the _test.go files of dir.
func testFuncs(t *testing.T, dir string) map[string]bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				out[fd.Name.Name] = true
			}
		}
	}
	return out
}
