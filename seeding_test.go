// One-seeding-path guard: every seeded random stream of the program is
// built by sim.NewRand, the kernel's own copy of math/rand's source. A
// rand.New or rand.NewSource call elsewhere would seed at math/rand's cost
// and escape the source's oracle test; math/rand's global functions (the
// shard fabric's backoff jitter) seed nothing and are not affected.
package repro

import (
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
// reported; math/rand's global functions, the *rand.Rand type,
// internal/sim itself and bench/ are not.
func TestSeedingCallsDetector(t *testing.T) {
	prog, err := parseSources("repro", map[string]string{
		"repro/internal/a/a.go": `package a

import "math/rand"

func f(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func jitter(n int64) int64 { return rand.Int63n(n) }
`,
		"repro/cmd/c/main.go": `package main

import mr "math/rand"

var src = mr.NewSource

func main() { _ = src(1).Int63() }
`,
		"repro/internal/sim/s.go": `package sim

import "math/rand"

func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
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
	}, "\n")
	if got != want {
		t.Errorf("detector reported\n%s\nwant\n%s", got, want)
	}
}

// seedingCalls returns "file:line: rand.Func" for every use, called or
// not, of a seedingFuncs function of math/rand in the module's packages
// other than internal/sim and bench/, sorted.
func seedingCalls(prog *program) []string {
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
	}
	sort.Strings(out)
	return out
}
