package samr

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randBoxFrom(rng *rand.Rand) Box {
	lo := Point{rng.Intn(20) - 10, rng.Intn(20) - 10, rng.Intn(20) - 10}
	return Box{Lo: lo, Hi: Point{
		lo[0] + 1 + rng.Intn(12), lo[1] + 1 + rng.Intn(12), lo[2] + 1 + rng.Intn(12)}}
}

func TestBoxAlgebraProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randBoxFrom(rng), randBoxFrom(rng)
		// Intersection is commutative.
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 || (ok1 && i1 != i2) {
			return false
		}
		// The intersection lies inside both operands.
		if ok1 && (!a.ContainsBox(i1) || !b.ContainsBox(i1)) {
			return false
		}
		// Bound contains both operands and is commutative.
		u := a.Bound(b)
		if u != b.Bound(a) || !u.ContainsBox(a) || !u.ContainsBox(b) {
			return false
		}
		// SharedFaceArea is symmetric and zero for overlapping boxes.
		if a.SharedFaceArea(b) != b.SharedFaceArea(a) {
			return false
		}
		if ok1 && a.SharedFaceArea(b) != 0 {
			return false
		}
		// Refine/Coarsen round trip.
		if a.Refine(2).Coarsen(2) != a {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceCorruptionResistance(t *testing.T) {
	// Build a valid serialized trace, then corrupt it in assorted ways;
	// ReadTrace must error, never panic, and never return an invalid
	// hierarchy.
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	lines := strings.Split(strings.TrimRight(valid, "\n"), "\n")

	corruptions := []string{
		// Truncated mid-line.
		valid[:len(valid)/2],
		// Snapshot lines reordered after a bogus header count.
		strings.Replace(valid, `"snapshots":2`, `"snapshots":3`, 1),
		// Ratio zeroed.
		strings.Replace(valid, `"ratio":2`, `"ratio":0`, -1),
		// Level boxes inverted (Hi < Lo).
		strings.Replace(valid, `"Hi":[32,16,16]`, `"Hi":[0,0,0]`, 1),
		// Second line replaced with junk.
		lines[0] + "\n{not json}\n",
	}
	for i, c := range corruptions {
		got, err := ReadTrace(strings.NewReader(c))
		if err == nil {
			// Acceptable only if the result still validates fully.
			for _, s := range got.Snapshots {
				if vErr := s.H.Validate(); vErr != nil {
					t.Fatalf("corruption %d: accepted invalid hierarchy: %v", i, vErr)
				}
			}
		}
	}
}

func TestCoveredByThroughBoxSet(t *testing.T) {
	// The hierarchy nesting check agrees with set coverage: inner, with
	// each cover box subtracted in turn, leaves no cell.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inner := randBoxFrom(rng)
		coverA := randBoxFrom(rng)
		coverB := randBoxFrom(rng)
		got := coveredBy(inner, []Box{coverA, coverB})
		return got == (len(subtractAll(inner, coverA, coverB)) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// subtractAll returns the disjoint boxes covering the cells of b that no
// box of cover covers.
func subtractAll(b Box, cover ...Box) []Box {
	var pieces []Box
	if !b.Empty() {
		pieces = []Box{b}
	}
	for _, c := range cover {
		if c.Empty() {
			continue
		}
		var next []Box
		for _, p := range pieces {
			next = append(next, p.Subtract(c)...)
		}
		pieces = next
	}
	return pieces
}
