// Package spec is the one implementation of the module's registry-style
// configuration mini-grammar
//
//	name[:arg[,...]]
//
// shared by every name-keyed parser surface: transports
// (eventsim.ParseTransport), lifetime families (rcm/eventsim/lifetime.Parse),
// experiment modes (exp.ParseMode), and the live node's -store/-transport
// flags (rcm/node). Before this package each of those parsers hand-rolled
// the same four rules; now they are thin wrappers over one Table and the
// rules cannot drift:
//
//   - names resolve case-insensitively with surrounding space ignored,
//   - aliases are first-class (every accepted spelling resolves to the same
//     canonical registrant),
//   - an unknown name errors descriptively, listing every accepted name and
//     alias in sorted order,
//   - everything after the first ':' is the registrant's argument text,
//     passed verbatim to its factory — the factory owns the argument
//     grammar (a number, a comma list, a file path, even a nested spec).
//
// Underneath the grammar sits Registry, the payload-agnostic name table:
// Register with collision checking, Lookup, Canonical, registration-order
// Names, sorted Keys. The geometry, protocol and scenario registries are
// plain Registry instances and a Table is a Registry of factories plus
// Parse, so the naming rules live here and nowhere else.
package spec

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Factory builds a registrant's value from the argument part of a spec (the
// text after the first ':', possibly empty). Factories must validate their
// argument and return descriptive errors; they never see the name part,
// which the Table has already resolved.
type Factory[T any] func(arg string) (T, error)

// Registry is the module's one case-insensitive, alias-aware,
// collision-checked name table, agnostic of what a name maps to: the
// geometry, protocol and scenario registries store their factories in it
// directly, and Table layers the "name[:arg]" grammar over a Registry of
// Factory values. The zero value is not usable; construct with
// NewRegistry. Registries are safe for concurrent use.
type Registry[E any] struct {
	prefix string // error prefix, e.g. "eventsim" or "lifetime"
	noun   string // what a registrant is called in errors, e.g. "transport"

	mu    sync.RWMutex
	order []string
	index map[string]registrant[E]
}

type registrant[E any] struct {
	canonical string
	entry     E
}

// NewRegistry returns an empty registry. prefix is the error-message
// package prefix ("eventsim"), noun is the vocabulary word used in errors
// ("transport" — producing e.g. `eventsim: unknown transport "warp" (have
// constant, empirical)`).
func NewRegistry[E any](prefix, noun string) *Registry[E] {
	return &Registry[E]{prefix: prefix, noun: noun, index: map[string]registrant[E]{}}
}

// Register adds an entry (a factory, in every registry of the module)
// under a canonical name plus optional aliases. Names are
// case-insensitive; registering a name or alias that is already taken (by
// either a canonical name or an alias) is an error, as is an empty name or
// a nil entry. A failed registration claims nothing.
func (r *Registry[E]) Register(name string, entry E, aliases ...string) error {
	if isNil(entry) {
		return fmt.Errorf("%s: %s %q has nil factory", r.prefix, r.noun, name)
	}
	keys := make([]string, 0, 1+len(aliases))
	for _, n := range append([]string{name}, aliases...) {
		k := fold(n)
		if k == "" {
			return fmt.Errorf("%s: empty %s name", r.prefix, r.noun)
		}
		keys = append(keys, k)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range keys {
		if _, taken := r.index[k]; taken {
			what := "name"
			if i > 0 {
				what = "alias"
			}
			return fmt.Errorf("%s: %s %s %q already registered", r.prefix, r.noun, what, k)
		}
		for _, prev := range keys[:i] {
			if prev == k {
				return fmt.Errorf("%s: %s %q aliases itself", r.prefix, r.noun, k)
			}
		}
	}
	for _, k := range keys {
		r.index[k] = registrant[E]{canonical: keys[0], entry: entry}
	}
	r.order = append(r.order, keys[0])
	return nil
}

// isNil reports whether a registry entry is a nil func, pointer, map,
// slice, channel or interface — the "nil factory" every Register rejects.
func isNil(entry any) bool {
	switch v := reflect.ValueOf(entry); v.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Func, reflect.Pointer, reflect.Map, reflect.Slice, reflect.Chan:
		return v.IsNil()
	}
	return false
}

// MustRegister is Register for statically-known names; it panics on error
// and is intended for package init blocks.
func (r *Registry[E]) MustRegister(name string, entry E, aliases ...string) {
	if err := r.Register(name, entry, aliases...); err != nil {
		panic(err)
	}
}

// Lookup resolves an entry by canonical name or alias.
func (r *Registry[E]) Lookup(name string) (E, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.index[fold(name)]
	return e.entry, ok
}

// Canonical resolves a name or alias to its canonical registered name
// (ok is false for unknown names).
func (r *Registry[E]) Canonical(name string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.index[fold(name)]
	return e.canonical, ok
}

// Names returns the canonical names in registration order (built-ins
// first, user registrations after).
func (r *Registry[E]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Keys returns every accepted name and alias, sorted; it backs "unknown
// name" error messages.
func (r *Registry[E]) Keys() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.index))
	for k := range r.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Unknown is the error for a name that did not resolve: it lists every
// accepted name and alias so a typo is self-diagnosing.
func (r *Registry[E]) Unknown(name string) error {
	return fmt.Errorf("%s: unknown %s %q (have %s)", r.prefix, r.noun, name, strings.Join(r.Keys(), ", "))
}

// Table is a Registry of factories plus the shared grammar of every
// "name[:arg]" flag in the module: Parse splits a spec, resolves the name
// (or the table default) and hands the argument text to the registrant's
// factory. The zero value is not usable; construct with New.
type Table[T any] struct {
	*Registry[Factory[T]]
	def string // canonical name selected by the empty spec ("" = reject); guarded by mu
}

// New returns an empty table; prefix and noun are as for NewRegistry.
func New[T any](prefix, noun string) *Table[T] {
	return &Table[T]{Registry: NewRegistry[Factory[T]](prefix, noun)}
}

// SetDefault makes the empty spec resolve to the named registrant (which
// must already be registered) with an empty argument, mirroring how
// ParseTransport("") means constant and lifetime.Parse("") means exp.
func (t *Table[T]) SetDefault(name string) error {
	k := fold(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.index[k]; !ok {
		return fmt.Errorf("%s: default %s %q is not registered", t.prefix, t.noun, name)
	}
	t.def = k
	return nil
}

// Parse resolves a full "name[:arg]" spec: split at the first ':', resolve
// the name (or the table default for an empty spec), and hand the argument
// text to the registrant's factory. A spec with an argument but no name
// (":0.5") is rejected — it is almost always a typo for a real name.
func (t *Table[T]) Parse(s string) (T, error) {
	var zero T
	name, arg := Split(s)
	if name == "" {
		if arg != "" || hasArg(s) {
			return zero, fmt.Errorf("%s: %s spec %q has an argument but no %s name", t.prefix, t.noun, s, t.noun)
		}
		t.mu.RLock()
		def := t.def
		t.mu.RUnlock()
		if def == "" {
			return zero, fmt.Errorf("%s: empty %s spec (have %s)", t.prefix, t.noun, strings.Join(t.Keys(), ", "))
		}
		name = def
	}
	f, ok := t.Lookup(name)
	if !ok {
		return zero, t.Unknown(name)
	}
	return f(arg)
}

// Split separates a spec into its name and argument parts at the first
// ':' — "pareto:1.5" is ("pareto", "1.5"), "stall:0.1:0.5" is
// ("stall", "0.1:0.5"), "exp" is ("exp", ""). The name is trimmed;
// the argument is passed through verbatim (factories own its grammar).
func Split(s string) (name, arg string) {
	name, arg, _ = strings.Cut(strings.TrimSpace(s), ":")
	return strings.TrimSpace(name), arg
}

// hasArg reports whether the spec carries a ':' (so ":" and ": " are
// "argument but no name" even though the argument text is empty).
func hasArg(s string) bool {
	return strings.Contains(s, ":")
}

// fold is the registry's name normalization: lower-case, space-trimmed.
func fold(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// Float parses a registrant's single numeric argument; the empty argument
// selects the registrant's default (zero, with ok=false). kind and name
// contextualize errors, e.g. Float("lifetime", "pareto", arg).
func Float(prefix, name, arg string) (v float64, ok bool, err error) {
	if strings.TrimSpace(arg) == "" {
		return 0, false, nil
	}
	v, err = strconv.ParseFloat(strings.TrimSpace(arg), 64)
	if err != nil {
		return 0, false, fmt.Errorf("%s: %s argument %q: %v", prefix, name, arg, err)
	}
	return v, true, nil
}

// Int is Float for integer arguments.
func Int(prefix, name, arg string) (v int, ok bool, err error) {
	if strings.TrimSpace(arg) == "" {
		return 0, false, nil
	}
	v, err = strconv.Atoi(strings.TrimSpace(arg))
	if err != nil {
		return 0, false, fmt.Errorf("%s: %s argument %q: %v", prefix, name, arg, err)
	}
	return v, true, nil
}
