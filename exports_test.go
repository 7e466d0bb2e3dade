package sparc64v

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

// testOnlyAllowed lists the exported internal names that no non-test file
// mentions but that stay, keyed package.Name or package.Type.Method, each
// with the reason it stays.
var testOnlyAllowed = map[string]string{
	"obs.Histogram.Quantile":    "oracle for internal/server's TestEstimateLatencyP99, which lives in another package",
	"stats.Table.Rows":          "oracle for the root and internal/expt tests, which count a study table's rows",
	"stats.Breakdown.Sum":       "oracle for the root tests, which check that a Figure 7 breakdown sums to about 1",
	"config.Config.WithName":    "reached by users through the root facade's Config alias",
	"core.Model.Config":         "reached by users through the root facade's Model alias",
	"verif.ReadProgram":         "decoder of the program artifact cmd/tracegen writes, and the target of FuzzReadProgram",
	"cpu.CPU.String":            "satisfies fmt.Stringer; internal/system's tests print a stuck CPU's pipeline state through it",
	"verif.byteReader.ReadByte": "satisfies io.ByteReader; ReadProgram's binary.ReadUvarint and ReadVarint calls reach it through the interface",
}

// TestNoTestOnlyExports fails when an exported top-level name or method
// declared under internal/ is unreachable from the module's non-test code
// (and the bench/ module's): such a name is API that only tests use.
// Delete it, or add it to testOnlyAllowed with the reason it stays.
func TestNoTestOnlyExports(t *testing.T) {
	unused, declared, err := unreachableExports(".", testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range unused {
		t.Errorf("%s is exported from internal/ but no non-test code reaches it: delete it, or allow it in testOnlyAllowed with a reason", key)
	}
	for key := range testOnlyAllowed {
		if _, ok := declared[key]; !ok {
			t.Errorf("testOnlyAllowed entry %s names no exported internal declaration", key)
		}
	}
}

// TestNoTestOnlyExportsFollowsChains runs the guard over a fixture tree
// in which Top is called only by a test and reaches Leaf through the
// unexported middle: both must be flagged, although Leaf has a non-test
// use. Deep, reached from cmd/ through an unexported helper, Build, used
// by a package-level initializer, and the allowlisted Kept and the Held it
// calls are all in use.
func TestNoTestOnlyExportsFollowsChains(t *testing.T) {
	unused, _, err := unreachableExports("testdata/exports",
		map[string]string{"lib.Kept": "fixture allowlist entry"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.Leaf", "lib.Top"}; !slices.Equal(unused, want) {
		t.Errorf("flagged %v, want %v", unused, want)
	}
}

// unreachableExports scans the non-test Go files under root and returns,
// sorted, the exported top-level names and methods declared under
// root/internal/ (keyed package.Name or package.Type.Method) that are
// neither allowed nor reachable, and every such declaration it saw.
//
// Reachability is by name, not by type. The roots are every identifier in
// a file outside internal/, in a package-level var initializer or in an
// init function, plus the allowed names. A name that is reachable makes
// every internal/ declaration of that name reachable, and with it every
// identifier in those declarations. So a use inside test-only code does
// not count, but a test-only method that shares its name with a method or
// field in use elsewhere (a String, a Len, a Config) passes unseen.
func unreachableExports(root string, allowed map[string]string) ([]string, map[string]string, error) {
	fset := token.NewFileSet()
	declared := map[string]string{} // pkg.Name or pkg.Type.Method -> Name or Method
	uses := map[string][]string{}   // name -> identifiers in internal/ declarations of that name
	var roots []string
	idents := func(n ast.Node, skip *ast.Ident) []string {
		var names []string
		if n != nil {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != skip {
					names = append(names, id.Name)
				}
				return true
			})
		}
		return names
	}
	walk := func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg, ok := strings.CutPrefix(filepath.ToSlash(rel), "internal/")
		if !ok {
			roots = append(roots, idents(f, nil)...)
			return nil
		}
		declare := func(id *ast.Ident, key string, body []string) {
			uses[id.Name] = append(uses[id.Name], body...)
			if id.IsExported() {
				declared[pkg+"."+key] = id.Name
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case decl.Recv != nil:
					declare(decl.Name, recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name, idents(decl, decl.Name))
				case decl.Name.Name == "init":
					roots = append(roots, idents(decl, decl.Name)...)
				default:
					declare(decl.Name, decl.Name.Name, idents(decl, decl.Name))
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, spec.Name.Name, idents(spec, spec.Name))
					case *ast.ValueSpec:
						var body []string
						for _, v := range spec.Values {
							body = append(body, idents(v, nil)...)
						}
						if decl.Tok == token.VAR {
							roots, body = append(roots, body...), nil
						}
						body = append(body, idents(spec.Type, nil)...)
						for _, id := range spec.Names {
							declare(id, id.Name, body)
						}
					}
				}
			}
		}
		return nil
	}
	if err := filepath.WalkDir(root, walk); err != nil {
		return nil, nil, err
	}

	for key := range allowed {
		if name, ok := declared[key]; ok {
			roots = append(roots, name)
		}
	}
	reached := map[string]bool{}
	for len(roots) > 0 {
		name := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !reached[name] {
			reached[name] = true
			roots = append(roots, uses[name]...)
		}
	}
	var unused []string
	for key, name := range declared {
		if _, ok := allowed[key]; !ok && !reached[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	return unused, declared, nil
}

// recvName returns the type name of a method receiver expression.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
