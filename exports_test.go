// Reachability guard: every func, method, type, var and const the module
// declares (bench/ aside) must be reached from the program, every struct
// field must be read somewhere, and no const may be used only as a case
// label; anything else needs a reasoned allowlist entry. Code that only
// tests reach is not a mechanism any spec, frontend, example or benchmark
// runs; it goes, or moves into the _test.go files that use it.
package repro

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist keeps what the guard reports, keyed as in finding.key; a
// key ending in ".*" covers every finding under that prefix. Every entry
// needs a reason. What a kept func uses counts as reached.
var exportAllowlist = map[string]string{
	// Used by another package's tests, so not movable into a _test.go file.
	"scenario.FailExecutor":           "test double for warm-cache legs; internal/exp's TestCrossBackendEquivalence uses it across packages, and that test stays unedited",
	"core.Client.Device":              "internal/exp's TestHotspotSharedProfilesStayUnchanged reads the clients' radios across packages",
	"dcf.Station.Stats":               "psm's TestLossyPollResponsesRetireAckedHead reads the AP station's retry and drop counters across packages",
	"qos.PlayoutBuffer.ConsumedBytes": "core's TestRandomOutageSoak checks playout byte conservation across packages",
	"qos.PlayoutBuffer.OverflowBytes": "core's TestRandomOutageSoak checks playout byte conservation across packages",
	"radio.Meter.TransitionEnergy":    "dcf's TestMatchesReference compares it bit for bit against the per-slot reference engine across packages",
	"sim.Simulator.SetEventLimit":     "metro's TestFrameStretchStopsAtHorizon trips it across packages to catch a frame stretch that never ends",

	// Protocol counters the tests assert on; the frame-conservation checks
	// build on them.
	"dcf.Stats.*":          statsReason,
	"dcf.StationStats.*":   statsReason,
	"psm.APStats.*":        statsReason,
	"psm.ClientStats.*":    statsReason,
	"transport.TCPStats.*": statsReason,
	"transport.Link.Lost":  statsReason,

	// Result fields the model's tests assert on or compare field by field
	// against the package's reference implementation.
	"aggregate.Result.*":          resultReason,
	"dvs.Result.*":                resultReason,
	"link.AdaptiveResult.*":       resultReason,
	"power.RunResult.*":           resultReason,
	"transport.TransferResult.*":  resultReason,
	"transport.UDPStreamResult.*": resultReason,

	// State only accessors in the package's _test.go files read.
	"pamas.Node.idleSleeps": "IdleSleeps in pamas_test.go counts battery-driven idle sleeps",
	"pamas.Node.sent":       "Stats in pamas_test.go counts each node's packets",
	"pamas.Node.recv":       "Stats in pamas_test.go counts each node's packets",
	"route.Node.ID":         "the reference router of route's TestMatchesReferenceProperty indexes nodes by it",
}

const (
	statsReason  = "a protocol counter that the package's tests assert on"
	resultReason = "a result field that the package's tests assert on or compare against its reference implementation"
)

func TestNoUnreferencedExports(t *testing.T) {
	prog, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range unreachedCode(prog, exportAllowlist) {
		if k := allowlistKey(f.key); k != "" {
			used[k] = true
			continue
		}
		t.Errorf("%s:%d %s %s", f.pos.Filename, f.pos.Line, f.key, f.what)
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
		if !used[k] {
			t.Errorf("allowlist entry %s is stale: nothing it names is reported", k)
		}
	}
}

// allowlistKey returns the allowlist entry covering key, or "".
func allowlistKey(key string) string {
	if _, ok := exportAllowlist[key]; ok {
		return key
	}
	for k := range exportAllowlist {
		if p, ok := strings.CutSuffix(k, "*"); ok && strings.HasPrefix(key, p) {
			return k
		}
	}
	return ""
}

// TestUnreferencedExportsDetector pins the detector on a small module: an
// exported func only tests call and the helper only it calls, a type used
// only by its own methods, a method and an unexported func only tests
// call, a field stored but never read and a const used only as a case
// label are reported; code reached from main, a method reached through
// io.Closer, a struct-tagged field read by encoding/json, everything
// bench/ reaches and bench/ itself are not.
func TestUnreferencedExportsDetector(t *testing.T) {
	prog, err := parseSources("m", map[string]string{
		"m/a/a.go": `package a

import (
	"encoding/json"
	"io"
)

func Dead() { Helper() }

func Helper() {}

func Used() int { return limit }

const limit = 3

type Self struct{}

func (Self) Clone() Self { return Self{} }

type Kind int

const (
	Small Kind = iota
	Large
)

func (k Kind) Big() bool {
	switch k {
	case Large:
		return true
	}
	return false
}

type Cache struct {
	hits, misses int
}

func NewCache() *Cache { return &Cache{} }

func (c *Cache) Get() int { c.misses++; return c.hits }

func (c *Cache) Close() error { return nil }

func (c *Cache) Hits() int { return c.hits }

func testOnly() int { return 1 }

func Closer() io.Closer { return NewCache() }

type row struct {
	Name string ` + "`json:\"name\"`" + `
}

func Encode() []byte { b, _ := json.Marshal([]row{{Name: "x"}}); return b }

func Tuned() int { return 7 }
`,
		"m/a/a_test.go": `package a

func useInTest() { Dead(); Helper(); _ = Self{}; NewCache().Hits(); testOnly() }
`,
		"m/cmd/main.go": `package main

import (
	"fmt"
	alias "m/a"
)

func main() {
	c := alias.NewCache()
	fmt.Println(alias.Used(), c.Get(), alias.Kind(1).Big(), alias.Closer(), alias.Encode())
}
`,
		"m/bench/b.go": `package main

import "m/a"

func main() {}

func unused() int { return a.Tuned() }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range unreachedCode(prog, nil) {
		got = append(got, f.key+" "+f.what)
	}
	want := []string{
		"a.Cache.Hits is unreached",
		"a.Cache.misses is never read",
		"a.Dead is unreached",
		"a.Helper is unreached",
		"a.Large is used only as a case label",
		"a.Self is unreached",
		"a.Self.Clone is unreached",
		"a.Small is unreached",
		"a.testOnly is unreached",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// finding is one declaration the guard reports.
type finding struct {
	key  string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	what string
	pos  token.Position
}

// reach is the reachability state of one program.
type reach struct {
	module   map[*types.Package]*typedPkg
	decl     map[types.Object]ast.Node // the declaration walked once reached
	declPkg  map[types.Object]*typedPkg
	key      map[types.Object]string
	reached  map[types.Object]bool
	work     []types.Object
	read     map[*types.Var]bool  // fields read by reached code
	uses     map[types.Object]int // const uses in reached code
	caseUses map[types.Object]int // ... of which as a case label
	ifaces   map[string]bool      // method names of the interfaces in use
}

// unreachedCode reports, sorted by key, the module's funcs, methods, types,
// vars and consts that no reached code uses, the fields of reached struct
// types that no reached code reads, and the consts that reached code uses
// only as case labels. Roots are every main and init, every package-level
// var declaration, every declaration under bench/, which is read-only and
// never reported, and the declarations keep names: those are still
// reported, but what they use counts as reached. A use is a
// types.Info.Uses entry inside a reached declaration. A method is also
// reached when its receiver type is reached and its name belongs to an
// interface in use: one declared by a package the module imports, error,
// or one reached code declares or spells out. A field is read when reached
// code selects it other than as the target of an assignment or increment,
// or passes a value holding it to a function of a package outside the
// module as an interface (encoding/json and fmt read fields by
// reflection).
func unreachedCode(prog *program, keep map[string]string) []finding {
	r := &reach{
		module:   map[*types.Package]*typedPkg{},
		decl:     map[types.Object]ast.Node{},
		declPkg:  map[types.Object]*typedPkg{},
		key:      map[types.Object]string{},
		reached:  map[types.Object]bool{},
		read:     map[*types.Var]bool{},
		uses:     map[types.Object]int{},
		caseUses: map[types.Object]int{},
		ifaces:   map[string]bool{"Error": true},
	}
	for _, p := range prog.pkgs {
		r.module[p.types] = p
	}
	type rootNode struct {
		pkg  *typedPkg
		node ast.Node
	}
	var roots []rootNode
	for _, p := range prog.pkgs {
		for _, imp := range p.types.Imports() {
			if r.module[imp] != nil {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					r.addIface(tn.Type())
				}
			}
		}
		bench := prog.underDir(p.path, "bench")
		for _, f := range p.files {
			for _, d := range f.Decls {
				if bench {
					roots = append(roots, rootNode{p, d})
					continue
				}
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, rootNode{p, d})
					} else if obj := p.info.Defs[d.Name]; obj != nil {
						r.decl[obj], r.declPkg[obj] = d, p
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							r.decl[obj], r.declPkg[obj] = s, p
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								roots = append(roots, rootNode{p, s})
							}
							for _, name := range s.Names {
								if obj := p.info.Defs[name]; obj != nil && name.Name != "_" {
									r.decl[obj], r.declPkg[obj] = s, p
								}
							}
						}
					}
				}
			}
		}
	}
	for obj, n := range r.decl {
		r.key[obj] = declKey(r.declPkg[obj].path, obj)
		if _, ok := keep[r.key[obj]]; ok {
			roots = append(roots, rootNode{r.declPkg[obj], n})
		}
	}
	for _, rn := range roots {
		r.walk(rn.pkg, rn.node)
	}
	for r.drain() {
	}

	var out []finding
	add := func(obj types.Object, key, what string) {
		out = append(out, finding{key, what, prog.fset.Position(obj.Pos())})
	}
	for obj := range r.decl {
		if prog.underDir(r.declPkg[obj].path, "bench") {
			continue
		}
		key := r.key[obj]
		switch {
		case !r.reached[obj]:
			add(obj, key, "is unreached")
		case r.uses[obj] > 0 && r.uses[obj] == r.caseUses[obj]:
			add(obj, key, "is used only as a case label")
		}
		if tn, ok := obj.(*types.TypeName); ok && r.reached[obj] && !tn.IsAlias() {
			st, ok := tn.Type().Underlying().(*types.Struct)
			for i := 0; ok && i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Embedded() && f.Name() != "_" && !r.read[f] {
					add(f, key+"."+f.Name(), "is never read")
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// declKey names a declaration as pkg.Name, or pkg.Type.Method for a
// method, where pkg is the last element of its package's import path.
func declKey(pkgPath string, obj types.Object) string {
	key := path.Base(pkgPath) + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				key += n.Obj().Name() + "."
			}
		}
	}
	return key + obj.Name()
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addIface records the method names of t when it is an interface.
func (r *reach) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			r.ifaces[it.Method(i).Name()] = true
		}
	}
}

// mark reaches obj once, queueing its declaration for a walk.
func (r *reach) mark(obj types.Object) {
	obj = origin(obj)
	if obj.Pkg() == nil || r.module[obj.Pkg()] == nil || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	if tn, ok := obj.(*types.TypeName); ok {
		r.addIface(tn.Type())
	}
	if n, ok := obj.Type().(*types.Named); ok {
		r.mark(n.Obj())
	}
	if r.decl[obj] != nil {
		r.work = append(r.work, obj)
	}
}

// drain walks every queued declaration, then reaches the methods that
// interfaces in use can call on reached types; it reports whether that
// reached anything new.
func (r *reach) drain() bool {
	for len(r.work) > 0 {
		obj := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		r.walk(r.declPkg[obj], r.decl[obj])
	}
	for obj := range r.reached {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i); r.ifaces[m.Name()] && !r.reached[m] {
				r.mark(m)
			}
		}
	}
	return len(r.work) > 0
}

// walk records every use inside a reached declaration.
func (r *reach) walk(p *typedPkg, n ast.Node) {
	info := p.info
	stores := map[*ast.Ident]bool{} // field names written, not read
	caseLabels := map[*ast.Ident]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						stores[sel.Sel] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok {
				stores[sel.Sel] = true
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						stores[id] = true
					}
				}
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					e = sel.Sel
				}
				if id, ok := e.(*ast.Ident); ok {
					caseLabels[id] = true
				}
			}
		case *ast.InterfaceType:
			if tv, ok := info.Types[n]; ok {
				r.addIface(tv.Type)
			}
		case *ast.CallExpr:
			r.reflectArgs(info, n)
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			obj = origin(obj)
			if v, ok := obj.(*types.Var); ok && v.IsField() && !stores[n] {
				r.read[v] = true
			}
			if _, ok := obj.(*types.Const); ok {
				r.uses[obj]++
				if caseLabels[n] {
					r.caseUses[obj]++
				}
			}
			r.mark(obj)
		}
		return true
	})
}

// reflectArgs marks as read every field of a value call passes as an
// interface to a function or method declared outside the module.
func (r *reach) reflectArgs(info *types.Info, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, ok := fun.(*ast.Ident)
	if !ok {
		return
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || r.module[fn.Pkg()] != nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < sig.Params().Len()-1 || !sig.Variadic() && i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		case sig.Variadic():
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if types.IsInterface(param) {
			if tv, ok := info.Types[arg]; ok {
				r.readAll(tv.Type, map[types.Type]bool{})
			}
		}
	}
}

// readAll marks every field reachable inside a value of type t as read.
func (r *reach) readAll(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		r.readAll(u.Elem(), seen)
	case *types.Slice:
		r.readAll(u.Elem(), seen)
	case *types.Array:
		r.readAll(u.Elem(), seen)
	case *types.Map:
		r.readAll(u.Key(), seen)
		r.readAll(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			r.read[u.Field(i)] = true
			r.readAll(u.Field(i).Type(), seen)
		}
	}
}
