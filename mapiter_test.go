// Map-order guard: Go randomizes map iteration order, so a package that
// schedules events or draws from the shared RNG must not range over a map
// in its non-test code; the order would leak into event order or RNG draws
// and make runs irreproducible. Walk attach or registration order instead.
package repro

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// simSchedulers are the methods of *sim.Simulator and the sim constructors
// that schedule events or hand out the shared RNG.
var simSchedulers = map[string]bool{
	"Simulator.At": true, "Simulator.Schedule": true, "Simulator.Rand": true,
	"NewTimer": true, "NewTicker": true,
}

func TestNoMapRangeWhereEventsAreScheduled(t *testing.T) {
	prog, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mapRanges(prog) {
		t.Errorf("%s: range over a map in a package that schedules events or draws from the shared RNG", r)
	}
}

// TestMapRangesDetector pins the detector on a small module: map ranges in
// a package that schedules through a method of *sim.Simulator, one that
// only builds a sim ticker and sim itself are reported, a named map type
// included; a package that names sim only for a type, test files, slice
// ranges and bench/ are not.
func TestMapRangesDetector(t *testing.T) {
	prog, err := parseSources("repro", map[string]string{
		"repro/internal/sim/sim.go": `package sim

type Time int64

type Simulator struct{ pending map[int]func() }

func (s *Simulator) Schedule(d Time, fn func()) { s.pending[len(s.pending)] = fn }

func (s *Simulator) Run() {
	for _, fn := range s.pending {
		fn()
	}
}

type Ticker struct{}

func NewTicker(s *Simulator, d Time, fn func()) *Ticker { s.Schedule(d, fn); return &Ticker{} }
`,
		"repro/internal/mac/mac.go": `package mac

import "repro/internal/sim"

type table map[int]int

func Start(s *sim.Simulator, t table, order []int) {
	for k := range t {
		_ = k
	}
	for _, v := range order {
		_ = v
	}
	s.Schedule(1, func() {})
}
`,
		"repro/internal/mac/mac_test.go": `package mac

func ranges(m map[int]int) {
	for range m {
	}
}
`,
		"repro/internal/app/app.go": `package app

import "repro/internal/sim"

func Start(s *sim.Simulator, m map[string]int) {
	sim.NewTicker(s, 1, func() {})
	for k, v := range m {
		_, _ = k, v
	}
}
`,
		"repro/internal/scenario/spec.go": `package scenario

import "repro/internal/sim"

type Spec struct{ Horizon sim.Time }

func Names(m map[string]Spec) (n []string) {
	for k := range m {
		n = append(n, k)
	}
	return n
}
`,
		"repro/bench/b.go": `package main

import "repro/internal/sim"

func main() {
	var s sim.Simulator
	s.Schedule(0, func() {})
	for range map[int]int{} {
	}
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(mapRanges(prog), "\n")
	want := strings.Join([]string{
		"repro/internal/app/app.go:7",
		"repro/internal/mac/mac.go:8",
		"repro/internal/sim/sim.go:10",
	}, "\n")
	if got != want {
		t.Errorf("detector reported\n%s\nwant\n%s", got, want)
	}
}

// mapRanges returns "file:line" for every range over a map-typed
// expression in the non-test code of a package, bench/ aside, that calls
// one of simSchedulers, sorted. Both the map type and the calls are
// resolved by type checking, so a package that names sim only for a type
// is out of scope.
func mapRanges(prog *program) []string {
	simPath := prog.module + "/internal/sim"
	var out []string
	for _, p := range prog.pkgs {
		if prog.underDir(p.path, "bench") || !schedules(p, simPath) {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if tv, ok := p.info.Types[rs.X]; ok {
					if _, ok := tv.Type.Underlying().(*types.Map); ok {
						pos := prog.fset.Position(rs.Pos())
						out = append(out, pos.Filename+":"+strconv.Itoa(pos.Line))
					}
				}
				return true
			})
		}
	}
	sort.Strings(out)
	return out
}

// schedules reports whether the package's code uses one of simSchedulers.
func schedules(p *typedPkg, simPath string) bool {
	for _, obj := range p.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != simPath {
			continue
		}
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				continue
			}
			name = named.Obj().Name() + "." + name
		}
		if simSchedulers[name] {
			return true
		}
	}
	return false
}
