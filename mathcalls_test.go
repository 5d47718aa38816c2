// CPU-independence guard: no output path may use math.Exp, math.Log or
// math.Pow. Those are assembly on amd64, arm64 and s390x, and amd64's Exp
// picks its code path by the CPU's FMA support, so their last bits depend
// on the host. internal/xmath holds the pure-Go replacements; the rest of
// the program (internal/, cmd/ and examples/, tests aside) goes through it.
package repro

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// hostMathFuncs are the math functions whose results vary by host.
var hostMathFuncs = map[string]bool{"Exp": true, "Log": true, "Pow": true}

func TestNoHostMathOnOutputPaths(t *testing.T) {
	prog, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range hostMathCalls(prog) {
		t.Errorf("%s: use repro/internal/xmath instead", c)
	}
}

// TestHostMathCallsDetector pins the detector on a small module: a call
// through the plain import, one through an alias, one through a dot import
// and function values taken at package level and inside a function are
// reported; math's pure-Go functions, bench/ and internal/xmath itself are
// not.
func TestHostMathCallsDetector(t *testing.T) {
	prog, err := parseSources("repro", map[string]string{
		"repro/internal/a/a.go": `package a

import "math"

func f(x float64) float64 { return math.Pow(x, 2) + math.Log1p(x) + math.Sqrt(x) }
`,
		"repro/internal/d/d.go": `package d

import . "math"

func g(x float64) float64 {
	exp := Exp
	return exp(x) + Sqrt(x)
}
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
	})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(hostMathCalls(prog), "\n")
	want := strings.Join([]string{
		"repro/cmd/c/main.go:5: math.Exp",
		"repro/cmd/c/main.go:7: math.Log",
		"repro/internal/a/a.go:5: math.Pow",
		"repro/internal/d/d.go:6: math.Exp",
	}, "\n")
	if got != want {
		t.Errorf("detector reported\n%s\nwant\n%s", got, want)
	}
}

// hostMathCalls returns "file:line: math.Func" for every use, called or
// not, of a hostMathFuncs function in packages under internal/, cmd/ and
// examples/ other than internal/xmath, sorted. Uses are resolved by type
// checking, so aliased and dot imports and function values are all seen.
func hostMathCalls(prog *program) []string {
	var out []string
	for _, p := range prog.pkgs {
		if !prog.underDir(p.path, "internal", "cmd", "examples") || prog.underDir(p.path, "internal/xmath") {
			continue
		}
		for id, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == "math" && hostMathFuncs[obj.Name()] {
				pos := prog.fset.Position(id.Pos())
				out = append(out, pos.Filename+":"+strconv.Itoa(pos.Line)+": math."+obj.Name())
			}
		}
	}
	sort.Strings(out)
	return out
}
