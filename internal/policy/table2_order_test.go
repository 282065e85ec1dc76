package policy

import (
	"testing"
)

// This file pins the priority structure of the Table-2 rule base — not
// just the query results but the encoded priorities themselves — so a
// silent edit to the rule table (a swapped rank, a dropped octant, a
// repriced comm rule) fails loudly even if it happens not to change some
// particular query's outcome.

// TestTable2PriorityEncodesPreferenceOrder walks all eight octants and
// checks each recommended scheme is encoded as a rule with priority
// 100 - rank: the paper's first-listed scheme at 100, the second at 99,
// the third at 98.
func TestTable2PriorityEncodesPreferenceOrder(t *testing.T) {
	b := Table2()
	byID := map[string]Rule{}
	for _, r := range rules(b) {
		byID[r.ID] = r
	}
	recs := Table2Recommendations()
	octants := []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}
	if len(recs) != len(octants) {
		t.Fatalf("recommendations cover %d octants, want %d", len(recs), len(octants))
	}
	nPartitioner := 0
	for _, oct := range octants {
		schemes := recs[oct]
		if len(schemes) == 0 {
			t.Fatalf("octant %s: no recommended schemes", oct)
		}
		for rank, scheme := range schemes {
			id := "table2-" + oct + "-" + scheme
			r, ok := byID[id]
			if !ok {
				t.Errorf("octant %s: missing rule %q", oct, id)
				continue
			}
			nPartitioner++
			if want := 100 - rank; r.Priority != want {
				t.Errorf("%s: priority %d, want %d (preference rank %d)", id, r.Priority, want, rank)
			}
			if r.Then.Kind != "select-partitioner" || r.Then.Target != scheme {
				t.Errorf("%s: action %+v, want select-partitioner %s", id, r.Then, scheme)
			}
			if m, ok := r.When["octant"]; !ok || m.Equals != oct {
				t.Errorf("%s: octant guard %+v", id, r.When)
			}
		}
		// The top pick must also win BestAction for the octant.
		act, ok := b.BestAction("select-partitioner", map[string]interface{}{"octant": oct})
		if !ok || act.Target != schemes[0] {
			t.Errorf("octant %s: BestAction %+v ok=%v, want first preference %s", oct, act, ok, schemes[0])
		}
	}
	// No stray select-partitioner rules beyond the table.
	total := 0
	for _, r := range rules(b) {
		if r.Then.Kind == "select-partitioner" {
			total++
		}
	}
	if total != nPartitioner {
		t.Errorf("%d select-partitioner rules in base, table describes %d", total, nPartitioner)
	}
}

// TestTable2MixedKindPriorities pins the §3.5 illustrative rules: the
// latency-tolerant communication rule exists for exactly the
// comm-dominated octants I, II, V, VI, gated on the cluster network at
// priority 50 (below every partitioner preference), and the cache-bound
// refinement rule sits at priority 10 with the 512 KB ceiling.
func TestTable2MixedKindPriorities(t *testing.T) {
	b := Table2()
	commOctants := map[string]bool{"I": true, "II": true, "V": true, "VI": true}
	seen := map[string]bool{}
	for _, r := range rules(b) {
		switch r.Then.Kind {
		case "communication-mechanism":
			oct := r.When["octant"].Equals
			if !commOctants[oct] {
				t.Errorf("comm rule %s targets unexpected octant %q", r.ID, oct)
			}
			seen[oct] = true
			if r.Priority != 50 {
				t.Errorf("comm rule %s priority %d, want 50", r.ID, r.Priority)
			}
			if m, ok := r.When["network"]; !ok || m.Equals != "cluster" {
				t.Errorf("comm rule %s network guard %+v", r.ID, r.When)
			}
			if r.Then.Target != "latency-tolerant" {
				t.Errorf("comm rule %s target %q", r.ID, r.Then.Target)
			}
		case "configure-refinement":
			if r.Priority != 10 {
				t.Errorf("refinement rule %s priority %d, want 10", r.ID, r.Priority)
			}
			m, ok := r.When["cache-kb"]
			if !ok || m.Max == nil || *m.Max != 512 {
				t.Errorf("refinement rule %s cache guard %+v", r.ID, r.When)
			}
			seen["cache"] = true
		}
	}
	for oct := range commOctants {
		if !seen[oct] {
			t.Errorf("no comm rule for octant %s", oct)
		}
	}
	if !seen["cache"] {
		t.Error("no cache-bound refinement rule")
	}
	// Mixed-kind query: on a comm-dominated octant the partitioner
	// preference must outrank the comm rule, but both kinds answer.
	attrs := map[string]interface{}{"octant": "I", "network": "cluster"}
	scored := b.Query(attrs)
	if len(scored) < 3 {
		t.Fatalf("octant I cluster query returned %d rules", len(scored))
	}
	if scored[0].Rule.Then.Target != "pBD-ISP" {
		t.Errorf("top rule %+v, want pBD-ISP preference", scored[0].Rule.Then)
	}
	kinds := map[string]bool{}
	for _, s := range scored {
		kinds[s.Rule.Then.Kind] = true
	}
	if !kinds["select-partitioner"] || !kinds["communication-mechanism"] {
		t.Errorf("mixed-kind query kinds %v", kinds)
	}
}
