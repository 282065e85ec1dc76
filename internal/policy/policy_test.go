package policy

import (
	"testing"

	"github.com/pragma-grid/pragma/internal/octant"
)

func TestFuzzyMembership(t *testing.T) {
	fz := Fuzzy{Lo: 0, Peak: 5, Hi: 10}
	cases := []struct{ v, want float64 }{
		{-1, 0}, {0, 0}, {2.5, 0.5}, {5, 1}, {7.5, 0.5}, {10, 0}, {11, 0},
	}
	for _, c := range cases {
		if got := fz.Membership(c.v); got != c.want {
			t.Errorf("membership(%g) = %g, want %g", c.v, got, c.want)
		}
	}
	// Degenerate shoulders.
	left := Fuzzy{Lo: 5, Peak: 5, Hi: 10}
	if got := left.Membership(5.0001); got < 0.99 {
		t.Errorf("left-shoulder membership = %g", got)
	}
	right := Fuzzy{Lo: 0, Peak: 5, Hi: 5}
	if got := right.Membership(4.9999); got < 0.99 {
		t.Errorf("right-shoulder membership = %g", got)
	}
}

func TestAddUpdate(t *testing.T) {
	b := NewBase()
	if err := b.Add(Rule{}); err == nil {
		t.Error("rule without id accepted")
	}
	if err := b.Add(Rule{ID: "x"}); err == nil {
		t.Error("rule without action accepted")
	}
	r := Rule{ID: "r1", Then: Action{Kind: "k", Target: "a"}}
	if err := b.Add(r); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Rules()); n != 1 {
		t.Fatalf("len = %d", n)
	}
	// Replacing keeps insertion order.
	r2 := Rule{ID: "r2", Then: Action{Kind: "k", Target: "b"}}
	if err := b.Add(r2); err != nil {
		t.Fatal(err)
	}
	replaced := Rule{ID: "r1", Then: Action{Kind: "k", Target: "a2"}}
	if err := b.Add(replaced); err != nil {
		t.Fatal(err)
	}
	rules := b.Rules()
	if len(rules) != 2 || rules[0].ID != "r1" || rules[0].Then.Target != "a2" {
		t.Fatalf("rules after replace: %+v", rules)
	}
}

func TestQueryRanking(t *testing.T) {
	b := NewBase()
	mustAdd(b, Rule{
		ID: "exact", Priority: 1,
		When: map[string]Match{"octant": {Equals: "VI"}},
		Then: Action{Kind: "select-partitioner", Target: "pBD-ISP"},
	})
	mustAdd(b, Rule{
		ID: "fuzzy", Priority: 1,
		When: map[string]Match{"load": {Fuzzy: &Fuzzy{Lo: 0.5, Peak: 1, Hi: 1.5}}},
		Then: Action{Kind: "select-partitioner", Target: "G-MISP+SP"},
	})
	res := b.Query(map[string]interface{}{"octant": "VI", "load": 0.75})
	if len(res) != 2 {
		t.Fatalf("query returned %d rules", len(res))
	}
	if res[0].Rule.ID != "exact" || res[0].Degree != 1 {
		t.Fatalf("first result %+v", res[0])
	}
	if res[1].Rule.ID != "fuzzy" || res[1].Degree != 0.5 {
		t.Fatalf("second result %+v", res[1])
	}
	// Non-matching categorical excludes the rule entirely.
	res = b.Query(map[string]interface{}{"octant": "I", "load": 2.0})
	if len(res) != 0 {
		t.Fatalf("mismatched query returned %d rules", len(res))
	}
}

func TestPartialQueryUsesNeutralDegree(t *testing.T) {
	b := NewBase()
	mustAdd(b, Rule{
		ID: "two-cond", Priority: 1,
		When: map[string]Match{
			"octant":  {Equals: "II"},
			"network": {Equals: "cluster"},
		},
		Then: Action{Kind: "communication-mechanism", Target: "latency-tolerant"},
	})
	// Partial query: only octant given; the network condition scores 0.5.
	res := b.Query(map[string]interface{}{"octant": "II"})
	if len(res) != 1 || res[0].Degree != 0.5 {
		t.Fatalf("partial query result %+v", res)
	}
}

func TestNumericRangeMatch(t *testing.T) {
	b := NewBase()
	mustAdd(b, Rule{
		ID: "range", Priority: 1,
		When: map[string]Match{"procs": {Min: f(8), Max: f(64)}},
		Then: Action{Kind: "x", Target: "y"},
	})
	if res := b.Query(map[string]interface{}{"procs": 32}); len(res) != 1 {
		t.Fatal("in-range numeric rejected")
	}
	if res := b.Query(map[string]interface{}{"procs": 4}); len(res) != 0 {
		t.Fatal("below-range numeric accepted")
	}
	if res := b.Query(map[string]interface{}{"procs": 128.0}); len(res) != 0 {
		t.Fatal("above-range numeric accepted")
	}
	// Non-numeric value for numeric matcher scores zero.
	if res := b.Query(map[string]interface{}{"procs": "many"}); len(res) != 0 {
		t.Fatal("non-numeric value accepted")
	}
}

func TestBestAction(t *testing.T) {
	b := Table2()
	act, ok := b.BestAction("select-partitioner", map[string]interface{}{"octant": "VII"})
	if !ok || act.Target != "G-MISP+SP" {
		t.Fatalf("octant VII action = %+v ok=%v", act, ok)
	}
	if _, ok := b.BestAction("select-partitioner", map[string]interface{}{"octant": "nope"}); ok {
		t.Fatal("unknown octant matched")
	}
	// Octants are also matched via their Stringer.
	act, ok = b.BestAction("select-partitioner", map[string]interface{}{"octant": octant.VI})
	if !ok || act.Target != "pBD-ISP" {
		t.Fatalf("stringer octant action = %+v ok=%v", act, ok)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	// The policy base must encode exactly the paper's Table 2, including
	// the preference order.
	b := Table2()
	want := Table2Recommendations()
	for oct, schemes := range want {
		var got []string
		for _, s := range b.Query(map[string]interface{}{"octant": oct}) {
			if s.Rule.Then.Kind == "select-partitioner" {
				got = append(got, s.Rule.Then.Target)
			}
		}
		if len(got) != len(schemes) {
			t.Fatalf("octant %s: got %v, want %v", oct, got, schemes)
		}
		for i := range schemes {
			if got[i] != schemes[i] {
				t.Fatalf("octant %s: got %v, want %v", oct, got, schemes)
			}
		}
	}
}

func TestTable2MixedKinds(t *testing.T) {
	b := Table2()
	// Octant VI on a cluster: both a partitioner and a communication
	// mechanism should be recommended.
	attrs := map[string]interface{}{"octant": "VI", "network": "cluster"}
	if act, ok := b.BestAction("communication-mechanism", attrs); !ok || act.Target != "latency-tolerant" {
		t.Fatalf("communication action = %+v ok=%v", act, ok)
	}
	if act, ok := b.BestAction("select-partitioner", attrs); !ok || act.Target != "pBD-ISP" {
		t.Fatalf("partitioner action = %+v ok=%v", act, ok)
	}
	// Cache-size rule fires on numeric attribute.
	if act, ok := b.BestAction("configure-refinement", map[string]interface{}{"cache-kb": 256}); !ok || act.Params["cells"] != 16384 {
		t.Fatalf("refinement action = %+v ok=%v", act, ok)
	}
}
