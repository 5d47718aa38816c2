// Dead-export guard: every exported package-level func, type, var and
// const in the module (bench/ included) must be referenced from non-test
// code outside its own declaration, or carry a reasoned allowlist entry.
// Code that only tests reach is not a mechanism any spec, frontend, example
// or benchmark runs; it goes, or moves into the _test.go files that use it.
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist keeps exported identifiers that no non-test code
// references, keyed by "pkg.Name" (pkg is the last element of the package's
// import path). Every entry needs a reason.
var exportAllowlist = map[string]string{
	"scenario.FailExecutor": "test double for warm-cache legs; internal/exp's TestCrossBackendEquivalence uses it across packages, and that test stays unedited",
}

func TestNoUnreferencedExports(t *testing.T) {
	fset, files, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dead := unreferencedExports(fset, files)
	seen := map[string]bool{}
	for _, d := range dead {
		seen[d.key] = true
		if _, ok := exportAllowlist[d.key]; !ok {
			t.Errorf("%s:%d %s has no reference outside its declaration and tests", d.pos.Filename, d.pos.Line, d.key)
		}
	}
	keys := make([]string, 0, len(exportAllowlist))
	for k := range exportAllowlist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.TrimSpace(exportAllowlist[k]) == "" {
			t.Errorf("allowlist entry %s has no reason", k)
		}
		if !seen[k] {
			t.Errorf("allowlist entry %s is stale: it is referenced or gone", k)
		}
	}
}

// TestUnreferencedExportsDetector pins the detector on a small file set: an
// exported func nobody calls, one called only from that dead func, one
// called for real, and a type used only by its own methods.
func TestUnreferencedExportsDetector(t *testing.T) {
	src := map[string]string{
		"m/a/a.go": `package a

func Dead() { Helper() }

func Helper() {}

func Used() int { return limit }

const limit = 3

type Self struct{}

func (Self) Clone() Self { return Self{} }
`,
		"m/a/a_test.go": `package a

func useInTest() { Dead(); Helper(); _ = Self{} }
`,
		"m/cmd/main.go": `package main

import (
	"fmt"
	alias "m/a"
)

func main() { fmt.Println(alias.Used()) }
`,
	}
	fset := token.NewFileSet()
	var files []srcFile
	for name, body := range src {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, body, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{pkgPath: path.Dir(name), file: f})
	}
	var got []string
	for _, d := range unreferencedExports(fset, files) {
		got = append(got, d.key)
	}
	want := []string{"a.Dead", "a.Helper", "a.Self"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("reported %v, want %v", got, want)
	}
}

// srcFile is one parsed non-test file and the import path of its package.
type srcFile struct {
	pkgPath string
	file    *ast.File
}

// deadExport is one exported identifier with no live reference.
type deadExport struct {
	key string // pkg.Name
	pos token.Position
}

// loadModule parses every non-test .go file under root, nested modules
// (bench/) included. Import paths are the root module's path joined with
// the directory, which also holds for bench/ (module repro/bench).
func loadModule(root string) (*token.FileSet, []srcFile, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	first, _, _ := strings.Cut(string(mod), "\n")
	module := strings.TrimSpace(strings.TrimPrefix(first, "module"))
	fset := token.NewFileSet()
	var files []srcFile
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := module
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			pkgPath += "/" + dir
		}
		files = append(files, srcFile{pkgPath: pkgPath, file: f})
		return nil
	})
	return fset, files, err
}

// unreferencedExports reports the exported package-level funcs (methods
// excluded), types, vars and consts that no live code references, sorted
// by key. A reference is a bare identifier in the declaring package or
// alias.Name through an import of it. References from code outside every
// exported declaration (unexported funcs, main, init) are live; a
// reference from inside an exported declaration, or a type's methods,
// counts only once that identifier is live, so the search repeats until
// nothing changes and dead code cannot keep other code alive. Identifiers
// are matched by name alone (no type checking), which can only hide dead
// code, never report live code as dead.
func unreferencedExports(fset *token.FileSet, files []srcFile) []deadExport {
	type ident struct{ pkgPath, name string }
	type span struct {
		from, to token.Pos
		owners   []ident
	}
	pkgName := map[string]string{} // import path → package name
	for _, f := range files {
		pkgName[f.pkgPath] = f.file.Name.Name
	}
	declPos := map[ident]token.Pos{}
	var spans []span
	addSpan := func(pkgPath string, n ast.Node, names ...*ast.Ident) {
		var owners []ident
		for _, name := range names {
			if name.IsExported() {
				owners = append(owners, ident{pkgPath, name.Name})
			}
		}
		if len(owners) > 0 {
			spans = append(spans, span{n.Pos(), n.End(), owners})
		}
	}
	declare := func(pkgPath string, n ast.Node, names ...*ast.Ident) {
		for _, name := range names {
			if name.IsExported() {
				declPos[ident{pkgPath, name.Name}] = name.Pos()
			}
		}
		addSpan(pkgPath, n, names...)
	}
	for _, f := range files {
		for _, decl := range f.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(f.pkgPath, d, d.Name)
				} else if recv := receiverType(d); recv != nil {
					addSpan(f.pkgPath, d, recv)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(f.pkgPath, s, s.Name)
					case *ast.ValueSpec:
						declare(f.pkgPath, s, s.Names...)
					}
				}
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	enclosing := func(p token.Pos) []ident {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].to > p })
		if i < len(spans) && spans[i].from <= p {
			return spans[i].owners
		}
		return nil
	}

	live := map[ident]bool{}
	var work []ident
	uses := map[ident][]ident{} // owner → identifiers referenced inside it
	addRef := func(to ident, at token.Pos) {
		owners := enclosing(at)
		if owners == nil {
			if !live[to] {
				live[to] = true
				work = append(work, to)
			}
		}
		for _, o := range owners {
			uses[o] = append(uses[o], to)
		}
	}
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, im := range f.file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name, ok := pkgName[p]
			if !ok {
				continue
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		skip := map[*ast.Ident]bool{} // declaring names and field selectors
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						addRef(ident{p, n.Sel.Name}, n.Pos())
						return false
					}
				}
				skip[n.Sel] = true
			case *ast.Field:
				for _, name := range n.Names {
					skip[name] = true
				}
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, name := range n.Names {
					skip[name] = true
				}
			case *ast.Ident:
				if !skip[n] && n.IsExported() {
					addRef(ident{f.pkgPath, n.Name}, n.Pos())
				}
			}
			return true
		})
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, to := range uses[id] {
			if !live[to] {
				live[to] = true
				work = append(work, to)
			}
		}
	}

	var out []deadExport
	for id, pos := range declPos {
		if !live[id] {
			out = append(out, deadExport{path.Base(id.pkgPath) + "." + id.name, fset.Position(pos)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// receiverType returns the identifier naming a method's receiver type.
func receiverType(d *ast.FuncDecl) *ast.Ident {
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, _ := t.(*ast.Ident)
	return id
}
