package main

import (
	"net/url"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/pragma-grid/pragma/internal/fleet"
	"github.com/pragma-grid/pragma/internal/scenario"
)

func TestInputsRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	gen := map[string]func(seed int64) []string{
		"corpus": func(seed int64) []string { return submitQueries(corpusScenarios(seed, corpusSize), corpusProcs) },
		"tiny":   func(seed int64) []string { return submitQueries(tinyScenarios(seed, tinySize), tinyProcs) },
	}
	for name, g := range gen {
		a, b, c := g(5), g(5), g(6)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: one seed gave two different inputs", name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: two seeds gave the same inputs", name)
		}
	}
	if rm3dConfig(5) != rm3dConfig(5) || rm3dConfig(5) == rm3dConfig(6) {
		t.Error("rm3d: the configuration does not follow the seed")
	}
}

// shape is what stratification holds constant: how many scenarios have how
// many phases, and the multiset of (octant) and of (phase length) cards.
func shape(t *testing.T, scenarios []string) (phases, octants, lengths []string) {
	t.Helper()
	card := regexp.MustCompile(`^([IVX]+):(\d+)$`)
	for _, s := range scenarios {
		parts := strings.Split(s, ";")
		list := strings.Split(parts[len(parts)-1], ",")
		phases = append(phases, strings.Repeat("p", len(list)))
		for _, ph := range list {
			m := card.FindStringSubmatch(ph)
			if m == nil {
				t.Fatalf("phase %q in %q", ph, s)
			}
			octants = append(octants, m[1])
			lengths = append(lengths, m[2])
		}
	}
	sort.Strings(phases)
	sort.Strings(octants)
	sort.Strings(lengths)
	return
}

func TestCorpusIsStratified(t *testing.T) {
	p1, o1, l1 := shape(t, corpusScenarios(1, corpusSize))
	p2, o2, l2 := shape(t, corpusScenarios(2, corpusSize))
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(l1, l2) {
		t.Error("two seeds deal different multisets of phase counts, octants or lengths")
	}
	seen := make(map[string]int)
	for _, o := range o1 {
		seen[o]++
	}
	if len(seen) != 8 {
		t.Errorf("octants dealt: %v, want all eight", seen)
	}
}

func TestGeneratedScenariosAreAccepted(t *testing.T) {
	for _, q := range append(submitQueries(corpusScenarios(3, corpusSize), corpusProcs), submitQueries(tinyScenarios(3, tinySize), tinyProcs)...) {
		v, err := url.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := fleet.SpecFromValues(v)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		spec, err := scenario.ParseSpec(ws.Scenario)
		if err != nil {
			t.Fatalf("%s: %v", ws.Scenario, err)
		}
		if n := spec.TotalSnapshots(); n < 4 || n > 30 {
			t.Errorf("%s: %d snapshots", ws.Scenario, n)
		}
		if ws.Weight == 0 || v.Get("tenant") == "" {
			t.Errorf("%s: no tenant or weight", q)
		}
	}
}
