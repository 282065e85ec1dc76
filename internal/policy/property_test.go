package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randBase builds a base with random rules over a small attribute alphabet.
func randBase(rng *rand.Rand, n int) *Base {
	b := NewBase()
	octants := []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}
	for i := 0; i < n; i++ {
		when := map[string]Match{}
		if rng.Intn(2) == 0 {
			when["octant"] = Match{Equals: octants[rng.Intn(len(octants))]}
		}
		if rng.Intn(2) == 0 {
			lo := rng.Float64()
			peak := lo + rng.Float64()
			hi := peak + rng.Float64()
			when["load"] = Match{Fuzzy: &Fuzzy{Lo: lo, Peak: peak, Hi: hi}}
		}
		if rng.Intn(3) == 0 {
			min := float64(rng.Intn(16))
			max := min + float64(rng.Intn(64))
			when["procs"] = Match{Min: &min, Max: &max}
		}
		mustAdd(b, Rule{
			ID:       fmt.Sprintf("r%d", i),
			Priority: rng.Intn(5),
			When:     when,
			Then:     Action{Kind: "select-partitioner", Target: octants[rng.Intn(len(octants))]},
		})
	}
	return b
}

func TestQueryOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randBase(rng, 1+rng.Intn(20))
		attrs := map[string]interface{}{
			"octant": []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}[rng.Intn(8)],
			"load":   rng.Float64() * 3,
			"procs":  rng.Intn(96),
		}
		res := b.Query(attrs)
		for i := range res {
			if res[i].Degree <= 0 || res[i].Degree > 1 {
				return false
			}
			if i == 0 {
				continue
			}
			// Sorted by degree desc, then priority desc, then insertion.
			a, c := res[i-1], res[i]
			if a.Degree < c.Degree {
				return false
			}
			if a.Degree == c.Degree && a.Rule.Priority < c.Rule.Priority {
				return false
			}
			if a.Degree == c.Degree && a.Rule.Priority == c.Rule.Priority && a.Rule.Seq > c.Rule.Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBestActionIsQuerysFirstOfKindProperty: BestAction's one pass picks
// exactly the action Query's ranking puts first among rules of the kind,
// with two kinds interleaved and ties in degree and priority.
func TestBestActionIsQuerysFirstOfKindProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randBase(rng, 1+rng.Intn(20))
		for i := 0; i < rng.Intn(6); i++ {
			mustAdd(b, Rule{
				ID:       fmt.Sprintf("other%d", i),
				Priority: rng.Intn(5),
				When:     map[string]Match{"octant": {Equals: []string{"I", "II"}[rng.Intn(2)]}},
				Then:     Action{Kind: "communication-mechanism", Target: fmt.Sprint(i)},
			})
		}
		attrs := map[string]interface{}{
			"octant": []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}[rng.Intn(8)],
			"load":   rng.Float64() * 3,
			"procs":  rng.Intn(96),
		}
		if rng.Intn(3) == 0 {
			delete(attrs, "load") // partial query: neutral degrees tie
		}
		for _, kind := range []string{"select-partitioner", "communication-mechanism", "none"} {
			var want Action
			found := false
			for _, s := range b.Query(attrs) {
				if s.Rule.Then.Kind == kind {
					want, found = s.Rule.Then, true
					break
				}
			}
			got, ok := b.BestAction(kind, attrs)
			if ok != found || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBestActionAllocatesNothing: the meta-partitioner asks the base once
// per regrid, so the query itself must not allocate.
func TestBestActionAllocatesNothing(t *testing.T) {
	b := Table2()
	var octant interface{} = "VI"
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := b.BestAction("select-partitioner", map[string]interface{}{"octant": octant}); !ok {
			t.Fatal("no action for octant VI")
		}
	}); n != 0 {
		t.Fatalf("BestAction allocated %v times per call", n)
	}
}

func TestPartialQueryNeverBeatsFullMatchProperty(t *testing.T) {
	// A rule fully matched (all attributes present and matching exactly)
	// always ranks at degree 1; partial matches rank at most 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBase()
		mustAdd(b, Rule{
			ID:   "full",
			When: map[string]Match{"octant": {Equals: "III"}},
			Then: Action{Kind: "k", Target: "full"},
		})
		mustAdd(b, Rule{
			ID: "partial",
			When: map[string]Match{
				"octant":  {Equals: "III"},
				"network": {Equals: "cluster"},
			},
			Then: Action{Kind: "k", Target: "partial"},
		})
		_ = rng
		res := b.Query(map[string]interface{}{"octant": "III"})
		if len(res) != 2 {
			return false
		}
		return res[0].Rule.ID == "full" && res[0].Degree == 1 && res[1].Degree == 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
