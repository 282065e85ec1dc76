package agents

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Template is a blueprint of an application execution environment: "To
// configure the application execution environment, the MCS searches for an
// appropriate template in the template database that can meet all
// application requirements."
type Template struct {
	// Name identifies the template.
	Name string `json:"name"`
	// Provides declares the requirements the template satisfies, e.g.
	// {"attribute": "performance", "scheme": "active-redundancy"}.
	Provides map[string]string `json:"provides"`
	// Blueprint is the environment description itself (opaque JSON).
	Blueprint json.RawMessage `json:"blueprint,omitempty"`
}

// Registry is the template database with open registration and discovery —
// the role of the JINI-based registry in CATALINA. It is safe for
// concurrent use.
type Registry struct {
	mu        sync.RWMutex
	templates map[string]Template
}

// NewRegistry returns an empty template registry.
func NewRegistry() *Registry {
	return &Registry{templates: make(map[string]Template)}
}

// Register adds or replaces a template (third parties may register).
func (r *Registry) Register(t Template) error {
	if t.Name == "" {
		return fmt.Errorf("agents: template without name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.templates[t.Name] = t
	return nil
}

// Discover returns every template satisfying all given requirements (a
// template satisfies a requirement when Provides contains the same
// key/value), sorted by name. An empty requirement set matches everything.
func (r *Registry) Discover(requirements map[string]string) []Template {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Template
	for _, t := range r.templates {
		ok := true
		for k, v := range requirements {
			if t.Provides[k] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
