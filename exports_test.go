package sparc64v

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

// testOnlyAllowed lists the exported internal names that no non-test file
// mentions but that stay, keyed package.Name or package.Type.Method, each
// with the reason it stays.
var testOnlyAllowed = map[string]string{
	"obs.Histogram.Quantile": "oracle for internal/server's TestEstimateLatencyP99, which lives in another package",
	"stats.Table.Rows":       "oracle for the root and internal/expt tests, which count a study table's rows",
	"stats.Breakdown.Sum":    "oracle for the root tests, which check that a Figure 7 breakdown sums to about 1",
	"config.Config.WithName": "reached by users through the root facade's Config alias",
	"core.Model.Config":      "reached by users through the root facade's Model alias",
	"verif.ReadProgram":      "decoder of the program artifact cmd/tracegen writes, and the target of FuzzReadProgram",
	"cpu.CPU.String":         "satisfies fmt.Stringer; internal/system's tests print a stuck CPU's pipeline state through it",
}

// TestNoTestOnlyExports fails when an exported top-level name or method
// declared under internal/ appears as an identifier in no non-test Go file
// of the module or of the bench/ module, other than at its own
// declaration: such a name is API that only tests use. Delete it, or add
// it to testOnlyAllowed with the reason it stays.
//
// The check is by name, not by type: a test-only method that shares its
// name with a method or field in use elsewhere (a String, a Len, a Config)
// passes unseen.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	declared := map[string]string{} // pkg.Name or pkg.Type.Method -> Name or Method
	walk := func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
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
		decls := map[*ast.Ident]bool{}
		if pkg, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok {
			declare := func(id *ast.Ident, key string) {
				decls[id] = true
				if id.IsExported() {
					declared[pkg+"."+key] = id.Name
				}
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						declare(decl.Name, decl.Name.Name)
					} else {
						declare(decl.Name, recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(spec.Name, spec.Name.Name)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								declare(id, id.Name)
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	}
	if err := filepath.WalkDir(".", walk); err != nil {
		t.Fatal(err)
	}

	var unused []string
	for key, name := range declared {
		if _, ok := testOnlyAllowed[key]; !ok && uses[name] == 0 {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported from internal/ but no non-test file uses it: delete it, or allow it in testOnlyAllowed with a reason", key)
	}
	for key := range testOnlyAllowed {
		if _, ok := declared[key]; !ok {
			t.Errorf("testOnlyAllowed entry %s names no exported internal declaration", key)
		}
	}
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
