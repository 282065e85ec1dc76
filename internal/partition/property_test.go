package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pragma-grid/pragma/internal/samr"
)

// randomHierarchy builds a valid random two-level factor-2 hierarchy from
// a seed.
func randomHierarchy(seed int64) *samr.Hierarchy { return randomHierarchyRatio(seed, 2) }

// randomHierarchyRatio is randomHierarchy at a given refinement factor.
func randomHierarchyRatio(seed int64, ratio int) *samr.Hierarchy {
	rng := rand.New(rand.NewSource(seed))
	nx := 16 + 8*rng.Intn(4)
	ny := 8 + 8*rng.Intn(3)
	nz := 8 + 8*rng.Intn(3)
	h, err := samr.NewHierarchy(samr.MakeBox(nx, ny, nz), ratio)
	if err != nil {
		panic(err)
	}
	// Level 1: flag random blobs, cluster them (guarantees disjointness
	// and nesting by construction).
	flags := samr.NewFlags(h.Domain)
	for b := 0; b < 1+rng.Intn(5); b++ {
		lo := samr.Point{rng.Intn(nx - 4), rng.Intn(ny - 4), rng.Intn(nz - 4)}
		flags.SetBox(samr.Box{Lo: lo, Hi: samr.Point{
			lo[0] + 2 + rng.Intn(6), lo[1] + 2 + rng.Intn(4), lo[2] + 2 + rng.Intn(4)}})
	}
	boxes := samr.Cluster(flags, samr.DefaultClusterOptions())
	if len(boxes) == 0 {
		return h
	}
	level1 := make([]samr.Box, len(boxes))
	for i, b := range boxes {
		level1[i] = b.Refine(ratio)
	}
	if err := h.SetLevel(1, level1); err != nil {
		panic(err)
	}
	if err := h.Validate(); err != nil {
		panic(err)
	}
	return h
}

// TestPartitionersPropertyRandomHierarchies is the suite-wide property
// test: for random hierarchies and processor counts, every partitioner
// must produce a valid assignment that exactly covers the hierarchy, with
// total weight preserved.
func TestPartitionersPropertyRandomHierarchies(t *testing.T) {
	wm := samr.UniformWorkModel{}
	suite := append(All(), EqualBlock, Heterogeneous, PatchGreedy{})
	f := func(seed int64, procsRaw uint8) bool {
		h := randomHierarchy(seed)
		nprocs := 1 + int(procsRaw%32)
		for _, p := range suite {
			a, err := p.Partition(h, wm, nprocs)
			if err != nil {
				t.Logf("seed %d procs %d %s: %v", seed, nprocs, p.Name(), err)
				return false
			}
			if err := a.Validate(); err != nil {
				t.Logf("seed %d procs %d %s: %v", seed, nprocs, p.Name(), err)
				return false
			}
			if err := a.CoversHierarchy(h); err != nil {
				t.Logf("seed %d procs %d %s: %v", seed, nprocs, p.Name(), err)
				return false
			}
			total := samr.HierarchyWork(h, wm)
			if diff := a.TotalWeight() - total; diff > 1e-6*total || diff < -1e-6*total {
				t.Logf("seed %d procs %d %s: weight %g vs %g", seed, nprocs, p.Name(), a.TotalWeight(), total)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalNeverWorseThanGreedyProperty: for random weight sequences,
// optimal sequence partitioning never produces a worse bottleneck than
// greedy splitting.
func TestOptimalNeverWorseThanGreedyProperty(t *testing.T) {
	f := func(seed int64, procsRaw uint8, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%64)
		nprocs := 1 + int(procsRaw%16)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()*10
		}
		greedy := bottleneck(weights, splitOwners(splitGreedy, weights, nprocs), nprocs)
		optimal := bottleneck(weights, splitOwners(splitOptimal, weights, nprocs), nprocs)
		return optimal <= greedy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestContiguityProperty: every curve-order splitter produces contiguous,
// monotone owner sequences (the defining ISP property).
func TestContiguityProperty(t *testing.T) {
	f := func(seed int64, procsRaw uint8, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%100)
		nprocs := 1 + int(procsRaw%16)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 5
		}
		for _, split := range [][]int{
			splitOwners(splitGreedy, weights, nprocs),
			splitOwners(splitOptimal, weights, nprocs),
			splitOwners(splitDissection, weights, nprocs),
			weightedOwners(weights, make([]float64, nprocs)), // degenerate caps
		} {
			if len(split) != n {
				return false
			}
			for i := 1; i < n; i++ {
				if split[i] < split[i-1] || split[i] >= nprocs || split[i] < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedSequenceProportionalityProperty: chunk loads track capacities
// within one unit's weight for uniform unit weights.
func TestWeightedSequenceProportionalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
		nprocs := 2 + rng.Intn(6)
		caps := make([]float64, nprocs)
		var capSum float64
		for i := range caps {
			caps[i] = 0.2 + rng.Float64()
			capSum += caps[i]
		}
		owner := weightedOwners(weights, caps)
		load := make([]float64, nprocs)
		for i := range weights {
			load[owner[i]] += weights[i]
		}
		for p := 0; p < nprocs; p++ {
			want := float64(n) * caps[p] / capSum
			diff := load[p] - want
			if diff < 0 {
				diff = -diff
			}
			// Within a couple of units of the proportional target.
			if diff > 3 {
				t.Logf("seed %d: proc %d load %g want %g (caps %v)", seed, p, load[p], want, caps)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
