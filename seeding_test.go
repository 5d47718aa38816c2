// One-seeding-path guard: every seeded random stream of the program is
// built by sim.NewRand, the kernel's own copy of math/rand's source. A
// rand.New or rand.NewSource call elsewhere would seed at math/rand's cost
// and escape the source's oracle test; math/rand's global functions (the
// shard fabric's backoff jitter) seed nothing and are not affected. Nor
// may a sim.Rand be held by value outside internal/sim: a zero Rand's
// source draws 0 forever, and a copy replays its original's stream.
package repro

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// seedingFuncs are the math/rand functions that build a seeded stream.
var seedingFuncs = map[string]bool{"New": true, "NewSource": true}

func TestOneSeedingPath(t *testing.T) {
	prog, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range seedingCalls(prog) {
		t.Errorf("%s: use repro/internal/sim.NewRand instead", c)
	}
}

// TestSeedingCallsDetector pins the detector on a small module: calls
// through the plain import and an alias and a function value are
// reported, and so are a sim.Rand variable, field, composite literal,
// new(sim.Rand), a slice element type and a dereference; math/rand's
// global functions, the *rand.Rand and *sim.Rand types, internal/sim
// itself and bench/ are not.
func TestSeedingCallsDetector(t *testing.T) {
	prog, err := parseSources("repro", map[string]string{
		"repro/internal/a/a.go": `package a

import "math/rand"

func f(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func jitter(n int64) int64 { return rand.Int63n(n) }
`,
		"repro/internal/b/b.go": `package b

import "repro/internal/sim"

type model struct {
	rng  *sim.Rand
	own  sim.Rand
	many []sim.Rand
}

var zero sim.Rand

func g(s *sim.Simulator) (*sim.Rand, sim.Rand) {
	return new(sim.Rand), *s.Rand()
}

func h() int { return (&sim.Rand{}).Intn(2) + s().Intn(3) }

func s() *sim.Rand { return sim.NewRand(1) }
`,
		"repro/cmd/c/main.go": `package main

import mr "math/rand"

var src = mr.NewSource

func main() { _ = src(1).Int63() }
`,
		"repro/internal/sim/s.go": `package sim

import "math/rand"

type Rand struct{ r *rand.Rand }

func NewRand(seed int64) *Rand { return &Rand{rand.New(rand.NewSource(seed))} }

func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

type Simulator struct{ rng Rand }

func (s *Simulator) Rand() *Rand { return &s.rng }
`,
		"repro/bench/b.go": `package bench

import "math/rand"

var r = rand.New(rand.NewSource(1))
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(seedingCalls(prog), "\n")
	want := strings.Join([]string{
		"repro/cmd/c/main.go:5: rand.NewSource",
		"repro/internal/a/a.go:5: rand.New",
		"repro/internal/a/a.go:5: rand.NewSource",
		"repro/internal/b/b.go:11: sim.Rand by value",
		"repro/internal/b/b.go:13: sim.Rand by value",
		"repro/internal/b/b.go:14: sim.Rand by value",
		"repro/internal/b/b.go:17: sim.Rand by value",
		"repro/internal/b/b.go:7: sim.Rand by value",
		"repro/internal/b/b.go:8: sim.Rand by value",
	}, "\n")
	if got != want {
		t.Errorf("detector reported\n%s\nwant\n%s", got, want)
	}
}

// seedingCalls returns "file:line: rand.Func" for every use, called or
// not, of a seedingFuncs function of math/rand, and "file:line: sim.Rand
// by value" for every line that names sim.Rand other than behind a pointer
// or makes a sim.Rand value, in the module's packages other than
// internal/sim and bench/, sorted.
func seedingCalls(prog *program) []string {
	var randType types.Type
	for _, p := range prog.pkgs {
		if p.path == prog.module+"/internal/sim" {
			if obj := p.types.Scope().Lookup("Rand"); obj != nil {
				randType = obj.Type()
			}
		}
	}
	var out []string
	for _, p := range prog.pkgs {
		if prog.underDir(p.path, "internal/sim", "bench") {
			continue
		}
		for id, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == "math/rand" && seedingFuncs[obj.Name()] &&
				obj.Parent() == obj.Pkg().Scope() {
				pos := prog.fset.Position(id.Pos())
				out = append(out, pos.Filename+":"+strconv.Itoa(pos.Line)+": rand."+obj.Name())
			}
		}
		if randType == nil {
			continue
		}
		lines := map[string]bool{}
		for _, f := range p.files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				e, ok := n.(ast.Expr)
				tv, typed := p.info.Types[e]
				stack = append(stack, n)
				if !ok || !typed || !types.Identical(tv.Type, randType) {
					return true
				}
				if tv.IsType() {
					if _, ptr := stack[len(stack)-2].(*ast.StarExpr); ptr {
						return true
					}
				}
				pos := prog.fset.Position(e.Pos())
				if at := pos.Filename + ":" + strconv.Itoa(pos.Line); !lines[at] {
					lines[at] = true
					out = append(out, at+": sim.Rand by value")
				}
				return true
			})
		}
	}
	sort.Strings(out)
	return out
}
