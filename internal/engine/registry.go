package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Scheme is a registered integration: a display title plus a factory
// producing a fresh, paper-default-configured Backend for one run.
// Integrations register themselves from package init (database/sql driver
// style); consumers — the experiment harness, the facade, the CLIs —
// select them by name.
type Scheme struct {
	Name  string
	Title string
	New   func() Backend
}

var (
	regMu   sync.RWMutex
	schemes = make(map[string]Scheme)
)

// Register adds a scheme to the registry. It panics on an empty name, a
// nil factory, or a duplicate name — registration happens at init time,
// where failing loudly beats failing late.
func Register(s Scheme) {
	if s.Name == "" || s.New == nil {
		panic("engine: Register with empty name or nil factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := schemes[s.Name]; dup {
		panic(fmt.Sprintf("engine: backend %q registered twice", s.Name))
	}
	schemes[s.Name] = s
}

// Lookup finds a registered scheme by name.
func Lookup(name string) (Scheme, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := schemes[name]
	if !ok {
		return Scheme{}, fmt.Errorf("engine: unknown backend %q (registered: %v)", name, namesLocked())
	}
	return s, nil
}

// Names lists the registered backends, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(schemes))
	for n := range schemes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New builds a fresh instance of the named registered backend in its
// paper-default configuration.
func New(name string) (Backend, error) {
	sch, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return sch.New(), nil
}
