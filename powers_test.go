// One-power-table guard: a radio's state powers live in its radio.Profile
// (device meters, metro, link, transport and pamas all read one), so a
// float64 struct field named *Power outside internal/radio is a private
// copy of a calibration that can drift from the card it claims to model.
package repro

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// powerFieldAllowlist keeps what the guard reports, keyed as
// "pkg.Type.Field"; every entry needs a reason.
var powerFieldAllowlist = map[string]string{
	"trace.Gantt.MaxPower": "a rendering scale for the Gantt chart's power glyphs, not any radio's draw",
}

func TestRadioPowersLiveInProfiles(t *testing.T) {
	prog, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range powerFields(prog) {
		if _, ok := powerFieldAllowlist[f.key]; ok {
			used[f.key] = true
			continue
		}
		t.Errorf("%s: read the state power from a radio.Profile instead", f)
	}
	keys := make([]string, 0, len(powerFieldAllowlist))
	for k := range powerFieldAllowlist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.TrimSpace(powerFieldAllowlist[k]) == "" {
			t.Errorf("allowlist entry %s has no reason", k)
		}
		if !used[k] {
			t.Errorf("allowlist entry %s is stale: nothing it names is reported", k)
		}
	}
}

// TestPowerFieldsDetector pins the detector on a small module: float64
// fields named *Power, exported or not, in a named struct, through a named
// float64 type, in an anonymous struct and in bench/ are reported;
// internal/radio's fields, a non-float *Power field and fields whose name
// only contains Power are not.
func TestPowerFieldsDetector(t *testing.T) {
	prog, err := parseSources("repro", map[string]string{
		"repro/internal/radio/r.go": `package radio

type Profile struct {
	Power     [5]float64
	IdlePower float64
}
`,
		"repro/internal/link/l.go": `package link

type Watts float64

type Params struct {
	TxPower, RxPower float64
	Bytes            int
}

type cfg struct {
	sleepPower Watts
	PowerSave  bool
	AvgPowerW  float64
	TxPowerDBm int
}

func f() float64 {
	var x struct{ PeakPower float64 }
	return x.PeakPower + float64(cfg{}.sleepPower)
}
`,
		"repro/bench/b.go": `package bench

type Result struct{ AvgPower float64 }
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range powerFields(prog) {
		got = append(got, f.String())
	}
	want := []string{
		"repro/bench/b.go:3: bench.Result.AvgPower",
		"repro/internal/link/l.go:6: link.Params.TxPower",
		"repro/internal/link/l.go:6: link.Params.RxPower",
		"repro/internal/link/l.go:11: link.cfg.sleepPower",
		"repro/internal/link/l.go:18: link.struct.PeakPower",
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("detector reported\n%s\nwant\n%s", g, w)
	}
}

// powerField is one float64 field named *Power: its position and its key
// "pkg.Type.Field" (Type is "struct" for an anonymous struct).
type powerField struct {
	pos token.Position
	key string
}

func (f powerField) String() string {
	return f.pos.Filename + ":" + strconv.Itoa(f.pos.Line) + ": " + f.key
}

// powerFields returns every struct field of the module's packages other
// than internal/radio whose name ends in Power and whose type is float64
// or a type defined on it, in file and source order.
func powerFields(prog *program) []powerField {
	var out []powerField
	for _, p := range prog.pkgs {
		if prog.underDir(p.path, "internal/radio") {
			continue
		}
		report := func(owner string, st *ast.StructType) {
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					v, ok := p.info.Defs[id].(*types.Var)
					if !ok || !strings.HasSuffix(id.Name, "Power") {
						continue
					}
					if b, ok := v.Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Float64 {
						continue
					}
					out = append(out, powerField{
						pos: prog.fset.Position(id.Pos()),
						key: path.Base(p.path) + "." + owner + "." + id.Name,
					})
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					ast.Inspect(n.Type, func(m ast.Node) bool {
						if st, ok := m.(*ast.StructType); ok {
							report(n.Name.Name, st)
						}
						return true
					})
					return false
				case *ast.StructType:
					report("struct", n)
				}
				return true
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return out
}
