package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/sfc"
)

// testHierarchy builds a representative 3-level hierarchy: a refined slab
// and a refined blob with a deeper core.
func testHierarchy(t testing.TB) *samr.Hierarchy {
	t.Helper()
	h, err := samr.NewHierarchy(samr.MakeBox(64, 32, 32), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Level 1 (coords x2): slab and blob.
	if err := h.SetLevel(1, []samr.Box{
		{Lo: samr.Point{20, 0, 0}, Hi: samr.Point{36, 64, 64}},
		{Lo: samr.Point{80, 20, 20}, Hi: samr.Point{112, 48, 48}},
	}); err != nil {
		t.Fatal(err)
	}
	// Level 2 (coords x4): core of the blob.
	if err := h.SetLevel(2, []samr.Box{
		{Lo: samr.Point{170, 50, 50}, Hi: samr.Point{214, 86, 86}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	return h
}

func checkAssignment(t *testing.T, h *samr.Hierarchy, a *Assignment) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := a.CoversHierarchy(h); err != nil {
		t.Fatal(err)
	}
}

func TestAllPartitionersProduceValidAssignments(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	for _, p := range All() {
		for _, nprocs := range []int{1, 2, 7, 16, 64} {
			a, err := p.Partition(h, wm, nprocs)
			if err != nil {
				t.Fatalf("%s/%d: %v", p.Name(), nprocs, err)
			}
			if a.NProcs != nprocs {
				t.Fatalf("%s: nprocs = %d", p.Name(), a.NProcs)
			}
			checkAssignment(t, h, a)
		}
	}
}

func TestPartitionerNames(t *testing.T) {
	want := []string{"SFC", "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP", "ISP"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d partitioners, want %d", len(all), len(want))
	}
	for i, p := range all {
		if p.Name() != want[i] {
			t.Errorf("partitioner %d name %q, want %q", i, p.Name(), want[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"SFC", "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP", "ISP", "EqualBlock", "Heterogeneous", "PatchGreedy"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
}

func TestPartitionArgValidation(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	if _, err := SFC.Partition(h, wm, 0); err == nil {
		t.Error("nprocs 0 accepted")
	}
	if _, err := SFC.Partition(nil, wm, 4); err == nil {
		t.Error("nil hierarchy accepted")
	}
}

func TestSinglProcAssignsEverythingToZero(t *testing.T) {
	h := testHierarchy(t)
	a, err := GMISPSP.Partition(h, samr.UniformWorkModel{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range a.Owner {
		if o != 0 {
			t.Fatal("single-proc assignment uses nonzero owner")
		}
	}
	if a.Imbalance() != 0 {
		t.Fatalf("single-proc imbalance = %g", a.Imbalance())
	}
}

func TestImbalanceOrderingAcrossSuite(t *testing.T) {
	// The PAC trade-off the paper builds on: the optimal sequence
	// partitioners balance better than greedy, and coarse binary dissection
	// balances worst.
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	imb := map[string]float64{}
	for _, p := range All() {
		a, err := p.Partition(h, wm, 16)
		if err != nil {
			t.Fatal(err)
		}
		imb[p.Name()] = a.Imbalance()
	}
	if imb["SP-ISP"] > imb["ISP"] {
		t.Errorf("SP-ISP imbalance %.2f%% worse than ISP %.2f%% at equal granularity",
			imb["SP-ISP"], imb["ISP"])
	}
	if imb["pBD-ISP"] < imb["G-MISP+SP"] {
		t.Errorf("pBD-ISP imbalance %.2f%% better than G-MISP+SP %.2f%%", imb["pBD-ISP"], imb["G-MISP+SP"])
	}
	if imb["pBD-ISP"] < imb["SP-ISP"] {
		t.Errorf("coarse dissection imbalance %.2f%% better than fine optimal SP %.2f%%",
			imb["pBD-ISP"], imb["SP-ISP"])
	}
}

func TestCommOrderingCoarseVsFine(t *testing.T) {
	// Coarse granularity (pBD-ISP) must produce fewer messages and fewer
	// fragments than fine granularity (SP-ISP) at equal processor count —
	// that is how it "reduces communication overheads" on latency-bound
	// networks.
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	coarse, err := PBDISP.Partition(h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := SPISP.Partition(h, wm, 16)
	if err != nil {
		t.Fatal(err)
	}
	cs := BuildCommPlan(h, coarse).Stats
	fs := BuildCommPlan(h, fine).Stats
	if cs.Messages >= fs.Messages {
		t.Errorf("pBD-ISP messages %g not below SP-ISP messages %g", cs.Messages, fs.Messages)
	}
	if len(coarse.Units) >= len(fine.Units) {
		t.Errorf("pBD-ISP units %d not below SP-ISP units %d", len(coarse.Units), len(fine.Units))
	}
}

// splitOwners runs splitter k on weights into a fresh owner slice.
func splitOwners(k splitKind, weights []float64, nprocs int) []int {
	owner := make([]int, len(weights))
	k.owners(weights, nprocs, owner, nil)
	return owner
}

// weightedOwners is weightedSequence into a fresh owner slice.
func weightedOwners(weights, caps []float64) []int {
	owner := make([]int, len(weights))
	weightedSequence(weights, caps, owner)
	return owner
}

func TestGreedyPrefix(t *testing.T) {
	owner := splitOwners(splitGreedy, []float64{1, 1, 1, 1}, 2)
	if owner[0] != 0 || owner[3] != 1 {
		t.Fatalf("owners = %v", owner)
	}
	// Each proc gets a unit when counts match.
	owner = splitOwners(splitGreedy, []float64{5, 1, 1}, 3)
	want := []int{0, 1, 2}
	for i := range want {
		if owner[i] != want[i] {
			t.Fatalf("owners = %v, want %v", owner, want)
		}
	}
	// Monotone non-decreasing owners (contiguity).
	owner = splitOwners(splitGreedy, []float64{3, 1, 4, 1, 5, 9, 2, 6}, 3)
	for i := 1; i < len(owner); i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("owners not contiguous: %v", owner)
		}
	}
}

func TestOptimalSequenceIsOptimal(t *testing.T) {
	// Brute-force check on small instances: the bottleneck achieved by
	// optimalSequence equals the true optimum over all contiguous splits.
	cases := [][]float64{
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{10, 1, 1, 1, 10},
		{1, 1, 1, 1, 1, 1, 1},
		{7},
		{2, 2, 2, 9},
	}
	for _, weights := range cases {
		for p := 1; p <= 4; p++ {
			owner := splitOwners(splitOptimal, weights, p)
			got := bottleneck(weights, owner, p)
			want := bruteForceBottleneck(weights, p)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("weights %v p=%d: bottleneck %g, optimum %g (owners %v)",
					weights, p, got, want, owner)
			}
		}
	}
}

func bottleneck(weights []float64, owner []int, p int) float64 {
	load := make([]float64, p)
	for i, w := range weights {
		load[owner[i]] += w
	}
	var m float64
	for _, v := range load {
		if v > m {
			m = v
		}
	}
	return m
}

// bruteForceBottleneck tries every contiguous split via DP.
func bruteForceBottleneck(weights []float64, p int) float64 {
	n := len(weights)
	prefix := make([]float64, n+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	const inf = math.MaxFloat64
	dp := make([][]float64, p+1)
	for k := range dp {
		dp[k] = make([]float64, n+1)
		for i := range dp[k] {
			dp[k][i] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= p; k++ {
		for i := 1; i <= n; i++ {
			for j := k - 1; j < i; j++ {
				if dp[k-1][j] == inf {
					continue
				}
				cost := math.Max(dp[k-1][j], prefix[i]-prefix[j])
				if cost < dp[k][i] {
					dp[k][i] = cost
				}
			}
		}
	}
	best := inf
	for k := 1; k <= p; k++ {
		if dp[k][n] < best {
			best = dp[k][n]
		}
	}
	return best
}

func TestBinaryDissection(t *testing.T) {
	owner := splitOwners(splitDissection, []float64{1, 1, 1, 1, 1, 1, 1, 1}, 4)
	counts := map[int]int{}
	for i := 1; i < len(owner); i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("owners not contiguous: %v", owner)
		}
	}
	for _, o := range owner {
		counts[o]++
	}
	for p := 0; p < 4; p++ {
		if counts[p] != 2 {
			t.Fatalf("uniform dissection uneven: %v", owner)
		}
	}
	// Non-power-of-two processor counts are supported.
	owner = splitOwners(splitDissection, []float64{1, 1, 1, 1, 1, 1}, 3)
	seen := map[int]bool{}
	for _, o := range owner {
		if o < 0 || o >= 3 {
			t.Fatalf("owner %d out of range", o)
		}
		seen[o] = true
	}
	if len(seen) != 3 {
		t.Fatalf("dissection left processors empty: %v", owner)
	}
}

func TestWeightedSequence(t *testing.T) {
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = 1
	}
	owner := weightedOwners(weights, []float64{3, 1})
	load := make([]float64, 2)
	for i := range weights {
		load[owner[i]] += weights[i]
	}
	// 3:1 capacity split of 100 units: proc0 near 75.
	if load[0] < 65 || load[0] > 85 {
		t.Fatalf("weighted split load = %v, want ~[75 25]", load)
	}
	// Zero capacities degrade to equal split without panicking.
	owner = weightedOwners(weights, []float64{0, 0})
	load = make([]float64, 2)
	for i := range weights {
		load[owner[i]] += weights[i]
	}
	if load[0] == 0 || load[1] == 0 {
		t.Fatalf("degenerate capacities starved a processor: %v", load)
	}
}

func TestHeterogeneousPartitioner(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a, err := PartitionWeighted(h, wm, []float64{2, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, h, a)
	w := a.Work()
	if w[0] <= w[1] || w[0] <= w[2] {
		t.Fatalf("capacity-2 processor got %v", w)
	}
	if _, err := PartitionWeighted(h, wm, nil, nil); err == nil {
		t.Error("empty capacities accepted")
	}
	if _, err := PartitionWeighted(h, wm, []float64{1, -1}, nil); err == nil {
		t.Error("negative capacity accepted")
	}
	// Plain Partition falls back to equal shares.
	a2, err := Heterogeneous.Partition(h, wm, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, h, a2)
}

func TestEqualBlockPartitioner(t *testing.T) {
	h := testHierarchy(t)
	a, err := EqualBlock.Partition(h, samr.UniformWorkModel{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, h, a)
	if a.Imbalance() > 100 {
		t.Fatalf("equal block imbalance = %.1f%%", a.Imbalance())
	}
}

func TestVariableGrainUnits(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	total := samr.HierarchyWork(h, wm)
	units := variableGrainUnits(h, wm, total/64, 2)
	var sum float64
	for _, u := range units {
		sum += u.Weight
		// No unit may exceed the threshold unless it is at minimum size.
		if u.Weight > total/64 && (u.Box.Dx(0) >= 4 || u.Box.Dx(1) >= 4 || u.Box.Dx(2) >= 4) {
			t.Fatalf("unit %v weight %g exceeds threshold %g", u.Box, u.Weight, total/64)
		}
	}
	if math.Abs(sum-total) > 1e-6*total {
		t.Fatalf("unit weights sum %g != total %g", sum, total)
	}
}

func TestBlockUnitsPatchGranularity(t *testing.T) {
	h := testHierarchy(t)
	units := blockUnits(h, samr.UniformWorkModel{}, 0)
	boxes := 0
	for _, lb := range h.Levels {
		boxes += len(lb)
	}
	if len(units) != boxes {
		t.Fatalf("patch granularity produced %d units for %d boxes", len(units), boxes)
	}
}

func TestMortonCurveOption(t *testing.T) {
	h := testHierarchy(t)
	dom := h.LevelDomain(h.Depth() - 1)
	curve := sfc.MustMorton(sfc.BitsFor(dom.Dx(0), dom.Dx(1), dom.Dx(2)))
	a, err := SPISPOnCurve(curve).Partition(h, samr.UniformWorkModel{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkAssignment(t, h, a)
}

func TestAssignmentValidateCatchesBadData(t *testing.T) {
	a := &Assignment{NProcs: 2, Units: []Unit{{Level: 0, Box: samr.MakeBox(2, 2, 2), Weight: 1}}, Owner: []int{5}}
	if err := a.Validate(); err == nil {
		t.Error("out-of-range owner accepted")
	}
	a = &Assignment{NProcs: 2, Units: []Unit{{Level: 0, Box: samr.MakeBox(2, 2, 2)}}, Owner: nil}
	if err := a.Validate(); err == nil {
		t.Error("owner/unit length mismatch accepted")
	}
	a = &Assignment{
		NProcs: 2,
		Units: []Unit{
			{Level: 0, Box: samr.MakeBox(4, 4, 4)},
			{Level: 0, Box: samr.Box{Lo: samr.Point{2, 2, 2}, Hi: samr.Point{6, 6, 6}}},
		},
		Owner: []int{0, 1},
	}
	if err := a.Validate(); err == nil {
		t.Error("overlapping units accepted")
	}
}

// TestAssignmentValidateMatchesPairwise: the sorted, x-pruned overlap scan
// accepts exactly the assignments whose units are pairwise disjoint within
// each level; units on different levels never conflict, whatever their
// boxes. A lone overlapping pair is named in the message.
func TestAssignmentValidateMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		a := &Assignment{NProcs: 1, Units: make([]Unit, n), Owner: make([]int, n)}
		for i := range a.Units {
			var lo, hi samr.Point
			for d := 0; d < 3; d++ {
				lo[d] = rng.Intn(8) - 2
				hi[d] = lo[d] + 1 + rng.Intn(3)
			}
			a.Units[i] = Unit{Level: rng.Intn(3), Box: samr.Box{Lo: lo, Hi: hi}}
		}
		want := true
		for i := range a.Units {
			for j := i + 1; j < n; j++ {
				ui, uj := a.Units[i], a.Units[j]
				if ui.Level == uj.Level && ui.Box.Overlaps(uj.Box) {
					want = false
				}
			}
		}
		if err := a.Validate(); (err == nil) != want {
			t.Fatalf("trial %d: Validate = %v, pairwise disjoint = %v for %+v", trial, err, want, a.Units)
		}
		if !want {
			rejected++
		}
	}
	if rejected == 0 || rejected == 500 {
		t.Fatalf("%d of 500 random assignments overlap; the trials test one side only", rejected)
	}

	same := samr.MakeBox(4, 4, 4)
	a := &Assignment{
		NProcs: 1,
		Units: []Unit{
			{Level: 1, Box: same}, {Level: 0, Box: same}, {Level: 2, Box: same},
			{Level: 1, Box: samr.Box{Lo: samr.Point{3, 3, 3}, Hi: samr.Point{5, 5, 5}}},
		},
		Owner: []int{0, 0, 0, 0},
	}
	err := a.Validate()
	if want := fmt.Sprintf("partition: level 1 units %v and %v overlap", same, a.Units[3].Box); err == nil || err.Error() != want {
		t.Fatalf("Validate = %v, want %q", err, want)
	}
	a.Units = a.Units[:3]
	a.Owner = a.Owner[:3]
	if err := a.Validate(); err != nil {
		t.Fatalf("equal boxes on three levels: %v", err)
	}
}
