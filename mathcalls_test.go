// CPU-independence guard: no output path may call math.Exp, math.Log or
// math.Pow. Those are assembly on amd64, arm64 and s390x, and amd64's Exp
// picks its code path by the CPU's FMA support, so their last bits depend
// on the host. internal/xmath holds the pure-Go replacements; the rest of
// the program (internal/, cmd/ and examples/, tests aside) goes through it.
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// hostMathFuncs are the math functions whose results vary by host.
var hostMathFuncs = map[string]bool{"Exp": true, "Log": true, "Pow": true}

func TestNoHostMathOnOutputPaths(t *testing.T) {
	fset, files, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range hostMathCalls(fset, files) {
		t.Errorf("%s: use repro/internal/xmath instead", c)
	}
}

// TestHostMathCallsDetector pins the detector on a small file set: a call
// through the plain import and one through an alias are reported; math's
// pure-Go functions, bench/ and internal/xmath itself are not.
func TestHostMathCallsDetector(t *testing.T) {
	src := map[string]string{
		"repro/internal/a/a.go": `package a

import "math"

func f(x float64) float64 { return math.Pow(x, 2) + math.Log1p(x) + math.Sqrt(x) }
`,
		"repro/cmd/c/main.go": `package main

import m "math"

var g = m.Exp

func main() { _ = m.Log(2) }
`,
		"repro/internal/xmath/x.go": `package xmath

import "math"

func ref(x float64) float64 { return math.Exp(x) }
`,
		"repro/bench/b.go": `package bench

import "math"

var k = math.Pow(2, 0.5)
`,
	}
	fset := token.NewFileSet()
	var files []srcFile
	for name, body := range src {
		f, err := parser.ParseFile(fset, name, body, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{pkgPath: path.Dir(name), file: f})
	}
	got := strings.Join(hostMathCalls(fset, files), "\n")
	want := strings.Join([]string{
		"repro/cmd/c/main.go:5: m.Exp",
		"repro/cmd/c/main.go:7: m.Log",
		"repro/internal/a/a.go:5: math.Pow",
	}, "\n")
	if got != want {
		t.Errorf("detector reported\n%s\nwant\n%s", got, want)
	}
}

// hostMathCalls returns "file:line: name.Func" for every selector of a
// hostMathFuncs function through an import of "math" in the files of
// packages under internal/, cmd/ and examples/ other than internal/xmath,
// sorted.
func hostMathCalls(fset *token.FileSet, files []srcFile) []string {
	var out []string
	for _, sf := range files {
		_, rel, _ := strings.Cut(sf.pkgPath, "/") // drop the module path
		scoped := false
		for _, dir := range []string{"internal", "cmd", "examples"} {
			scoped = scoped || rel == dir || strings.HasPrefix(rel, dir+"/")
		}
		if !scoped || rel == "internal/xmath" {
			continue
		}
		name := ""
		for _, imp := range sf.file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "math" {
				name = "math"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			continue
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && hostMathFuncs[sel.Sel.Name] {
				pos := fset.Position(sel.Pos())
				out = append(out, pos.Filename+":"+strconv.Itoa(pos.Line)+": "+name+"."+sel.Sel.Name)
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}
