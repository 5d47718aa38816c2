package scenario

import (
	"fmt"
	"regexp"
	"sync"
)

// The global registry. Experiment packages add themselves from init(), so
// any program that imports the experiment package sees its catalogue; the
// mutex makes concurrent registration (and test-local registration) safe.
var (
	regMu    sync.RWMutex
	registry = map[string]Spec{}
	order    []string
)

// Register adds a spec to the global registry. Registering an empty name,
// a missing run function, a (deprecated, ignored) Tuning or a duplicate
// name panics: these are programming errors in the experiment catalogue,
// not runtime conditions.
func Register(s Spec) {
	if s.Name == "" {
		panic("scenario: Register with empty name")
	}
	if !s.Runnable() {
		panic(fmt.Sprintf("scenario: Register %q with no run function", s.Name))
	}
	if s.Tuning != nil {
		panic(fmt.Sprintf("scenario: Register %q with Tuning; the kernel has no tuning knobs", s.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", s.Name))
	}
	registry[s.Name] = s
	order = append(order, s.Name)
}

// All returns every registered spec in registration order, which the
// experiment packages arrange to be catalogue order (figures first, then
// the survey experiments, then ablations).
func All() []Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Spec, 0, len(order))
	for _, name := range order {
		out = append(out, registry[name])
	}
	return out
}

// Lookup returns the spec registered under name.
func Lookup(name string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Match selects specs from the registry, preserving registration order.
// pattern is an anchored regular expression over names ("" matches all);
// tags keeps only specs carrying at least one of the given tags (empty
// keeps all); names keeps only exact names (empty keeps all). An exact
// name that resolves nothing is an error so CLI typos fail loudly.
func Match(pattern string, tags []string, names []string) ([]Spec, error) {
	var re *regexp.Regexp
	if pattern != "" {
		var err error
		re, err = regexp.Compile("^(?:" + pattern + ")$")
		if err != nil {
			return nil, fmt.Errorf("scenario: bad pattern %q: %v", pattern, err)
		}
	}
	for _, n := range names {
		if _, ok := Lookup(n); !ok {
			return nil, fmt.Errorf("scenario: unknown experiment %q", n)
		}
	}
	wantName := map[string]bool{}
	for _, n := range names {
		wantName[n] = true
	}
	var out []Spec
	for _, s := range All() {
		if re != nil && !re.MatchString(s.Name) {
			continue
		}
		if len(wantName) > 0 && !wantName[s.Name] {
			continue
		}
		if len(tags) > 0 {
			hit := false
			for _, t := range tags {
				if s.HasTag(t) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		out = append(out, s)
	}
	return out, nil
}
