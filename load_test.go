// Typed loader shared by the root package's static guards. It parses every
// non-test package of the module, bench/ included, and type-checks it with
// go/types; the standard library is type-checked from GOROOT's source
// (go/importer's "source" mode), so the guards need no network and no
// build cache.
package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// program is a type-checked set of packages of one module.
type program struct {
	module string
	fset   *token.FileSet
	pkgs   []*typedPkg // dependencies before dependents
}

// typedPkg is one type-checked non-test package.
type typedPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// guardFset holds every file the guards parse, the standard library's
// included, so one source importer serves every load.
var (
	guardFset   = token.NewFileSet()
	stdOnce     sync.Once
	stdImporter types.Importer
)

var (
	moduleOnce sync.Once
	moduleProg *program
	moduleErr  error
)

// loadModule returns the repository's module, type-checked once per test
// binary.
func loadModule() (*program, error) {
	moduleOnce.Do(func() { moduleProg, moduleErr = parseModule(".") })
	return moduleProg, moduleErr
}

// parseModule parses every non-test .go file under root that matches the
// host's build constraints, nested modules (bench/) included, and
// type-checks the result. Import paths are the root module's path joined
// with the directory, which also holds for bench/ (module repro/bench).
func parseModule(root string) (*program, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	first, _, _ := strings.Cut(string(mod), "\n")
	module := strings.TrimSpace(strings.TrimPrefix(first, "module"))
	files := map[string][]*ast.File{}
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
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(guardFset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath := module
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			pkgPath += "/" + dir
		}
		files[pkgPath] = append(files[pkgPath], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return typeCheck(module, files)
}

// parseSources type-checks an in-memory module for the guards' self-tests:
// src maps a file name, whose directory is its package's import path, to
// its contents. Files ending in _test.go are skipped, as on disk.
func parseSources(module string, src map[string]string) (*program, error) {
	names := make([]string, 0, len(src))
	for name := range src {
		names = append(names, name)
	}
	sort.Strings(names)
	files := map[string][]*ast.File{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(guardFset, name, src[name], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[path.Dir(name)] = append(files[path.Dir(name)], f)
	}
	return typeCheck(module, files)
}

// typeCheck type-checks every package in files, keyed by import path.
func typeCheck(module string, files map[string][]*ast.File) (*program, error) {
	stdOnce.Do(func() { stdImporter = importer.ForCompiler(guardFset, "source", nil) })
	l := &loader{files: files, done: map[string]*typedPkg{}}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return &program{module: module, fset: guardFset, pkgs: l.order}, nil
}

// loader imports the module's packages from its parsed files and every
// other package from the standard library's source.
type loader struct {
	files map[string][]*ast.File
	done  map[string]*typedPkg
	order []*typedPkg
}

func (l *loader) Import(p string) (*types.Package, error) {
	files, ok := l.files[p]
	if !ok {
		return stdImporter.Import(p)
	}
	if tp, ok := l.done[p]; ok {
		if tp.types == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return tp.types, nil
	}
	tp := &typedPkg{path: p, files: files, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	l.done[p] = tp
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, guardFset, files, tp.info)
	if err != nil {
		return nil, err
	}
	tp.types = pkg
	l.order = append(l.order, tp)
	return pkg, nil
}

// underDir reports whether the import path lies in one of the module's
// top-level directories dirs.
func (prog *program) underDir(pkgPath string, dirs ...string) bool {
	rel, ok := strings.CutPrefix(pkgPath, prog.module+"/")
	if !ok {
		return false
	}
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}
