// Package policy implements Pragma's adaptation policy knowledge base
// (§3.5): a programmable database of rules that relate system and
// application state abstractions to configurations, algorithms and
// mechanisms. Rules can be added and replaced at runtime;
// management agents query the base associatively — partial attribute sets
// are allowed and numeric attributes may match fuzzily — and receive
// actions ranked by degree of match and priority.
package policy

import (
	"fmt"
	"sort"
	"sync"
)

// Action is what a matched rule prescribes.
type Action struct {
	// Kind classifies the action, e.g. "select-partitioner",
	// "communication-mechanism", "configure-refinement".
	Kind string `json:"kind"`
	// Target is the action's object, e.g. "pBD-ISP" or
	// "latency-tolerant".
	Target string `json:"target"`
	// Params carries optional numeric configuration, e.g. partitioning
	// granularity or thresholds.
	Params map[string]float64 `json:"params,omitempty"`
}

// Fuzzy is a triangular membership function over a numeric attribute:
// membership rises linearly from Lo to 1 at Peak and falls back to 0 at
// Hi.
type Fuzzy struct {
	Lo   float64 `json:"lo"`
	Peak float64 `json:"peak"`
	Hi   float64 `json:"hi"`
}

// Membership returns the degree in [0,1] to which v belongs to the set.
func (f Fuzzy) Membership(v float64) float64 {
	switch {
	case v <= f.Lo || v >= f.Hi:
		return 0
	case v == f.Peak:
		return 1
	case v < f.Peak:
		if f.Peak == f.Lo {
			return 1
		}
		return (v - f.Lo) / (f.Peak - f.Lo)
	default:
		if f.Hi == f.Peak {
			return 1
		}
		return (f.Hi - v) / (f.Hi - f.Peak)
	}
}

// Match constrains one attribute. Exactly one of the matchers should be
// set; an empty Match matches everything with degree 1.
type Match struct {
	// Equals matches a categorical attribute exactly.
	Equals string `json:"equals,omitempty"`
	// Min/Max match a numeric attribute against a closed range; nil means
	// unbounded on that side.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Fuzzy matches a numeric attribute with a triangular membership.
	Fuzzy *Fuzzy `json:"fuzzy,omitempty"`
}

// degree returns how well the attribute value satisfies the match.
// Categorical mismatches and out-of-range numerics return 0.
func (m Match) degree(v interface{}) float64 {
	if m.Equals != "" {
		if s, ok := v.(string); ok && s == m.Equals {
			return 1
		}
		if s, ok := v.(fmt.Stringer); ok && s.String() == m.Equals {
			return 1
		}
		return 0
	}
	num, ok := toFloat(v)
	if !ok {
		return 0
	}
	if m.Fuzzy != nil {
		return m.Fuzzy.Membership(num)
	}
	if m.Min != nil && num < *m.Min {
		return 0
	}
	if m.Max != nil && num > *m.Max {
		return 0
	}
	return 1
}

func toFloat(v interface{}) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

// Rule is one policy: a guard over state attributes and the action it
// recommends. Higher Priority wins among equally matching rules; among
// equal priorities, insertion order (Seq) is preserved — which is how
// Table 2's "first listed" partitioner preference is encoded.
type Rule struct {
	ID       string           `json:"id"`
	Priority int              `json:"priority"`
	When     map[string]Match `json:"when"`
	Then     Action           `json:"then"`
	// Seq is the insertion sequence number, assigned by the base.
	Seq int `json:"-"`
}

// Base is the programmable policy knowledge base. It is safe for
// concurrent use.
type Base struct {
	mu    sync.RWMutex
	rules map[string]*Rule
	next  int
}

// NewBase returns an empty knowledge base.
func NewBase() *Base {
	return &Base{rules: make(map[string]*Rule)}
}

// Add inserts or replaces a rule ("programmability of the knowledge base
// will allow rules to be modified, adapted and extended").
func (b *Base) Add(r Rule) error {
	if r.ID == "" {
		return fmt.Errorf("policy: rule without id")
	}
	if r.Then.Kind == "" {
		return fmt.Errorf("policy: rule %q has no action kind", r.ID)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.rules[r.ID]; ok {
		r.Seq = old.Seq // replacing keeps the original position
	} else {
		r.Seq = b.next
		b.next++
	}
	b.rules[r.ID] = &r
	return nil
}

// Rules returns a copy of all rules sorted by insertion order.
func (b *Base) Rules() []Rule {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]Rule, 0, len(b.rules))
	for _, r := range b.rules {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Scored is a rule with its degree of match to a query.
type Scored struct {
	Rule   Rule
	Degree float64
}

// neutralDegree is the degree assigned to conditions whose attribute is
// absent from a partial query: the rule is neither confirmed nor excluded.
const neutralDegree = 0.5

// Query performs associative matching: it scores every rule against the
// (possibly partial) attribute set and returns those with degree > 0,
// sorted by degree, then priority, then insertion order. A rule's degree
// is the minimum over its conditions; conditions on attributes missing
// from the query contribute a neutral 0.5, enabling partial queries.
func (b *Base) Query(attrs map[string]interface{}) []Scored {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var out []Scored
	for _, r := range b.rules {
		if d := r.degree(attrs); d > 0 {
			out = append(out, Scored{Rule: *r, Degree: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return ranksBefore(out[i].Degree, &out[i].Rule, out[j].Degree, &out[j].Rule)
	})
	return out
}

// degree is the rule's degree of match to the query: the minimum over its
// conditions.
func (r *Rule) degree(attrs map[string]interface{}) float64 {
	d := 1.0
	for attr, m := range r.When {
		v, present := attrs[attr]
		var dd float64
		if !present {
			dd = neutralDegree
		} else {
			dd = m.degree(v)
		}
		if dd < d {
			d = dd
		}
		if d == 0 {
			break
		}
	}
	return d
}

// ranksBefore orders scored rules as Query returns them: by degree, then
// priority, then insertion order.
func ranksBefore(da float64, a *Rule, db float64, b *Rule) bool {
	if da != db {
		return da > db
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Seq < b.Seq
}

// BestAction returns the highest-ranked action of the given kind for the
// query — the first of that kind in Query's order — and false when
// nothing matches. It scores the rules in one pass and allocates nothing.
func (b *Base) BestAction(kind string, attrs map[string]interface{}) (Action, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var best *Rule
	var bestDegree float64
	for _, r := range b.rules {
		if r.Then.Kind != kind {
			continue
		}
		if d := r.degree(attrs); d > 0 && (best == nil || ranksBefore(d, r, bestDegree, best)) {
			best, bestDegree = r, d
		}
	}
	if best == nil {
		return Action{}, false
	}
	return best.Then, true
}
