package wisdom_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docGatePackages are the packages held to the documentation gate: every
// exported identifier (functions, methods — including methods on unexported
// receivers — types, constants, variables) must carry a doc comment, and
// the package itself must have a package comment. scripts/check.sh runs
// this test explicitly so documentation drift fails CI the same way a
// broken test does. Extend the list as other packages are brought up to
// the same standard.
var docGatePackages = []string{
	"internal/serve",
	"internal/resilience",
	"internal/neural",
	"internal/router",
	"internal/wisdom",
	"internal/ngram",
	"internal/lexical",
}

func TestDocGate(t *testing.T) {
	for _, dir := range docGatePackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			hasPkgDoc := false
			for _, file := range pkg.Files {
				if file.Doc != nil {
					hasPkgDoc = true
				}
				checkFileDocs(t, fset, file)
			}
			if !hasPkgDoc {
				t.Errorf("%s: package %s has no package comment", dir, pkg.Name)
			}
		}
	}
}

// checkFileDocs reports every exported top-level declaration in one file
// that lacks a doc comment. For grouped declarations (var/const/type
// blocks) either the group comment or a per-spec comment satisfies the
// gate, matching what godoc renders.
func checkFileDocs(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				t.Errorf("%s: exported func %s lacks a doc comment",
					fset.Position(d.Pos()), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						t.Errorf("%s: exported type %s lacks a doc comment",
							fset.Position(s.Pos()), s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							t.Errorf("%s: exported %s lacks a doc comment",
								fset.Position(n.Pos()), n.Name)
						}
					}
				}
			}
		}
	}
}

// TestReadmeFlagTables holds the README's flag tables to the binaries: every
// flag `-h` prints is named in that binary's table, and every flag the table
// names exists. Names only — defaults and meanings are prose. A row naming
// several flags (`-load` / `-save`) counts for each.
func TestReadmeFlagTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	usageFlag := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	tableRow := regexp.MustCompile("(?m)^\\| (`-[^|]*) \\|")
	rowFlag := regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
	for tool, heading := range map[string]string{
		"wisdom-serve":  "### wisdom-serve flags\n",
		"wisdom-router": "### Sharded serving (wisdom-router)\n",
	} {
		_, section, ok := strings.Cut(string(readme), heading)
		if !ok {
			t.Fatalf("README.md has no %q section", strings.TrimSpace(heading))
		}
		section, _, _ = strings.Cut(section, "\n#") // up to the next heading
		documented := map[string]bool{}
		for _, row := range tableRow.FindAllStringSubmatch(section, -1) {
			for _, f := range rowFlag.FindAllStringSubmatch(row[1], -1) {
				documented[f[1]] = true
			}
		}
		usage, _ := exec.Command(buildTool(t, tool), "-h").CombinedOutput() // -h exits 2 after printing
		var drift []string
		for _, f := range usageFlag.FindAllStringSubmatch(string(usage), -1) {
			if !documented[f[1]] {
				drift = append(drift, "-"+f[1]+" is missing from the README table")
			}
			delete(documented, f[1])
		}
		for f := range documented {
			drift = append(drift, "-"+f+" is in the README table but not in the binary")
		}
		sort.Strings(drift)
		if len(drift) > 0 {
			t.Errorf("%s: %s", tool, strings.Join(drift, "; "))
		}
	}
}
