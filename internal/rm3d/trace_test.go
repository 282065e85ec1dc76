package rm3d

import (
	"strings"
	"sync"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// fullTrace generates the paper-scale trace once for the whole test package.
var fullTrace = struct {
	once sync.Once
	tr   *samr.Trace
	err  error
}{}

func paperTrace(t testing.TB) *samr.Trace {
	t.Helper()
	fullTrace.once.Do(func() {
		fullTrace.tr, fullTrace.err = GenerateTrace(DefaultConfig())
	})
	if fullTrace.err != nil {
		t.Fatal(fullTrace.err)
	}
	return fullTrace.tr
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BaseDims = [3]int{4, 32, 32}
	if err := bad.Validate(); err == nil {
		t.Error("tiny dimension accepted")
	}
	bad = good
	bad.MaxDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero depth accepted")
	}
	// The generator builds at most three levels, so a fourth is refused
	// rather than silently dropped.
	bad = good
	bad.MaxDepth = 4
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("depth 4: error %v, want one naming depth", err)
	}
	bad = good
	bad.Ratio = 1
	if err := bad.Validate(); err == nil {
		t.Error("ratio 1 accepted")
	}
	bad = good
	bad.RegridEvery = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero regrid interval accepted")
	}
	bad = good
	bad.CoarseSteps = 2
	if err := bad.Validate(); err == nil {
		t.Error("run shorter than a regrid interval accepted")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.BaseDims != [3]int{128, 32, 32} {
		t.Errorf("base grid = %v, paper uses 128x32x32", c.BaseDims)
	}
	if c.MaxDepth != 3 {
		t.Errorf("depth = %d, paper uses 3 levels", c.MaxDepth)
	}
	if c.Ratio != 2 {
		t.Errorf("ratio = %d, paper uses factor 2", c.Ratio)
	}
	if c.RegridEvery != 4 {
		t.Errorf("regrid interval = %d, paper regrids every 4 steps", c.RegridEvery)
	}
	if c.Snapshots() < 200 {
		t.Errorf("trace has %d snapshots, paper reports over 200", c.Snapshots())
	}
	// Every time-step Table 3 samples must exist in the trace.
	for _, ts := range []int{0, 5, 25, 106, 137, 162, 174, 201} {
		if ts >= c.Snapshots() {
			t.Errorf("Table 3 time-step %d outside trace (%d snapshots)", ts, c.Snapshots())
		}
	}
}

func TestGenerateTraceStructure(t *testing.T) {
	tr := paperTrace(t)
	cfg := DefaultConfig()
	if len(tr.Snapshots) != cfg.Snapshots() {
		t.Fatalf("snapshots = %d, want %d", len(tr.Snapshots), cfg.Snapshots())
	}
	if tr.Name != "RM3D" || tr.RegridEvery != cfg.RegridEvery {
		t.Fatalf("trace metadata wrong: %q %d", tr.Name, tr.RegridEvery)
	}
	for i, s := range tr.Snapshots {
		if s.Index != i || s.CoarseStep != i*cfg.RegridEvery {
			t.Fatalf("snapshot %d indexing wrong: %+v", i, s)
		}
	}
}

func TestTraceHierarchiesValid(t *testing.T) {
	tr := paperTrace(t)
	deepest := 0
	for _, s := range tr.Snapshots {
		if err := s.H.Validate(); err != nil {
			t.Fatalf("snapshot %d: %v", s.Index, err)
		}
		if s.H.Depth() > deepest {
			deepest = s.H.Depth()
		}
	}
	if deepest != 3 {
		t.Fatalf("deepest hierarchy has %d levels, want 3", deepest)
	}
}

func TestTraceAMREfficiencyHigh(t *testing.T) {
	// The paper's Table 4 reports ~98.8% AMR efficiency; the synthetic
	// phenomenon must stay in the same regime (adaptivity saves nearly all
	// of the uniform-grid work).
	tr := paperTrace(t)
	for _, idx := range []int{5, 25, 106, 137, 162, 174, 201} {
		s := tr.Snapshots[idx]
		if s.H.Depth() < 3 {
			continue
		}
		if eff := s.H.AMREfficiency(); eff < 90 {
			t.Errorf("snapshot %d AMR efficiency %.2f%% below 90%%", idx, eff)
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	cfg := SmallConfig()
	a, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Snapshots {
		if samr.ChangeFraction(a.Snapshots[i].H, b.Snapshots[i].H, 1) != 0 {
			t.Fatalf("snapshot %d differs between identical runs", i)
		}
	}
}

func TestTraceSeedChangesLayout(t *testing.T) {
	cfg := SmallConfig()
	a, _ := GenerateTrace(cfg)
	cfg.Seed++
	b, _ := GenerateTrace(cfg)
	diff := 0
	for i := range a.Snapshots {
		if samr.ChangeFraction(a.Snapshots[i].H, b.Snapshots[i].H, 1) > 0 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("changing the seed changed nothing")
	}
}

func TestPhaseSchedule(t *testing.T) {
	cfg := DefaultConfig()
	// The Table 3 sample points must land in the phases engineered for them.
	wantPhases := map[int]Phase{
		0:   PhasePerturbation,
		5:   PhaseShockLaunch,
		25:  PhaseSteadyShock,
		106: PhaseInteraction,
		137: PhaseMixingGrowth,
		162: PhaseLateMixing,
		174: PhaseReshock,
		201: PhaseConsolidation,
	}
	for idx, want := range wantPhases {
		if got := cfg.PhaseAt(idx); got != want {
			t.Errorf("PhaseAt(%d) = %v, want %v", idx, got, want)
		}
	}
	// Phases are contiguous and ordered.
	prev := cfg.PhaseAt(0)
	for idx := 1; idx < cfg.Snapshots(); idx++ {
		p := cfg.PhaseAt(idx)
		if p < prev {
			t.Fatalf("phase went backwards at %d: %v -> %v", idx, prev, p)
		}
		prev = p
	}
}

func TestPhaseStringsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for p := PhasePerturbation; p <= PhaseConsolidation; p++ {
		s := p.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("phase %d has bad name %q", p, s)
		}
		seen[s] = true
	}
	if Phase(99).String() != "unknown" {
		t.Fatal("out-of-range phase should be unknown")
	}
}

func TestPhaseCharacteristics(t *testing.T) {
	// Structural sanity of the engineered phases, measured on the real
	// trace: scattered phases produce more level-1 clusters than localized
	// ones, and sheet phases have higher surface-to-volume than solid ones.
	tr := paperTrace(t)
	cluster := func(idx int) int { return tr.Snapshots[idx].H.ClusterCount(1) }
	sv := func(idx int) float64 { return tr.Snapshots[idx].H.SurfaceToVolume(1) }

	if cluster(106) <= cluster(25) {
		t.Errorf("interaction phase clusters (%d) not more scattered than steady shock (%d)",
			cluster(106), cluster(25))
	}
	disp := func(idx int) float64 { return tr.Snapshots[idx].H.Dispersion(1) }
	if disp(0) <= disp(201) {
		t.Errorf("perturbation dispersion (%.3f) not more scattered than consolidation (%.3f)",
			disp(0), disp(201))
	}
	if sv(25) <= sv(5) {
		t.Errorf("steady shock sheet s/v (%.3f) not above launch slab s/v (%.3f)", sv(25), sv(5))
	}
	if sv(162) <= sv(137) {
		t.Errorf("late mixing s/v (%.3f) not above mixing growth s/v (%.3f)", sv(162), sv(137))
	}
}

func TestWorkModelChargesFronts(t *testing.T) {
	cfg := SmallConfig()
	h, err := cfg.HierarchyAt(5)
	if err != nil {
		t.Fatal(err)
	}
	wm := cfg.WorkModel(5)
	withFronts := samr.HierarchyWork(h, wm)
	uniform := samr.HierarchyWork(h, samr.UniformWorkModel{})
	if withFronts <= uniform {
		t.Fatalf("front surcharge missing: %g <= %g", withFronts, uniform)
	}
}

func TestProfileRendering(t *testing.T) {
	tr := paperTrace(t)
	p := Profile(tr.Snapshots[5])
	lines := strings.Split(strings.TrimRight(p, "\n"), "\n")
	if len(lines) != 33 { // header + 32 rows
		t.Fatalf("profile has %d lines, want 33", len(lines))
	}
	for _, ch := range []string{"+", "#"} {
		if !strings.Contains(p, ch) {
			t.Errorf("profile missing %q marks:\n%s", ch, p)
		}
	}
	if !strings.Contains(lines[0], "t=5") {
		t.Errorf("profile header wrong: %q", lines[0])
	}
	for _, row := range lines[1:] {
		if len(row) != 128 {
			t.Fatalf("profile row width %d, want 128", len(row))
		}
	}
}

func TestHierarchyAtInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ratio = 0
	if _, err := GenerateTrace(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func BenchmarkHierarchyAt(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.HierarchyAt(106); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateTraceSmall(b *testing.B) {
	cfg := SmallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTrace(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateTrace generates the paper trace, the one every cold
// trace=paper run and every replay pays for before its first regrid.
func BenchmarkGenerateTrace(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTrace(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
