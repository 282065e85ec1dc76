package astro

import (
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/samr"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BaseDims = [3]int{8, 64, 64}
	if err := bad.Validate(); err == nil {
		t.Error("tiny dims accepted")
	}
	bad = good
	bad.MaxDepth = 5
	if err := bad.Validate(); err == nil {
		t.Error("depth 5 accepted")
	}
	bad = good
	bad.Ratio = 1
	if err := bad.Validate(); err == nil {
		t.Error("ratio 1 accepted")
	}
	bad = good
	bad.CoarseSteps = 1
	if err := bad.Validate(); err == nil {
		t.Error("short run accepted")
	}
}

func TestGalaxyMergerHistory(t *testing.T) {
	cfg := DefaultConfig()
	g := NewGalaxy(cfg, 12)
	first := len(g.state(0))
	last := len(g.state(cfg.Snapshots() - 1))
	if first != 12 {
		t.Fatalf("initial halos = %d", first)
	}
	if last >= first {
		t.Fatalf("no merging: %d -> %d halos", first, last)
	}
	// Halo count is non-increasing (merging only).
	prev := first
	for idx := 1; idx < cfg.Snapshots(); idx++ {
		n := len(g.state(idx))
		if n > prev {
			t.Fatalf("halo count grew at %d: %d -> %d", idx, prev, n)
		}
		prev = n
	}
	// Total mass is conserved through merging.
	var m0, mEnd float64
	for _, h := range g.state(0) {
		m0 += h.mass
	}
	for _, h := range g.state(cfg.Snapshots() - 1) {
		mEnd += h.mass
	}
	if diff := m0 - mEnd; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mass not conserved: %g -> %g", m0, mEnd)
	}
}

func TestGalaxyTraceValid(t *testing.T) {
	cfg := DefaultConfig()
	tr, err := GenerateTrace(cfg, NewGalaxy(cfg, 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Snapshots) != cfg.Snapshots() || tr.Name != "galaxy" {
		t.Fatalf("trace shape: %d snapshots name %q", len(tr.Snapshots), tr.Name)
	}
	for _, s := range tr.Snapshots {
		if err := s.H.Validate(); err != nil {
			t.Fatalf("snapshot %d: %v", s.Index, err)
		}
	}
	// The consolidation signature: refinement dispersion shrinks from the
	// scattered early universe to the consolidated late one.
	early := tr.Snapshots[1].H.Dispersion(1)
	late := tr.Snapshots[len(tr.Snapshots)-1].H.Dispersion(1)
	if late >= early {
		t.Errorf("galaxy dispersion did not consolidate: early %.3f late %.3f", early, late)
	}
}

func TestSupernovaTraceValid(t *testing.T) {
	cfg := DefaultConfig()
	tr, err := GenerateTrace(cfg, NewSupernova(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "supernova" {
		t.Fatalf("name = %q", tr.Name)
	}
	for _, s := range tr.Snapshots {
		if err := s.H.Validate(); err != nil {
			t.Fatalf("snapshot %d: %v", s.Index, err)
		}
	}
	// The explosion grows: refined volume increases from the progenitor.
	v0 := tr.Snapshots[0].H.CellsAtLevel(1)
	vEnd := tr.Snapshots[len(tr.Snapshots)-1].H.CellsAtLevel(1)
	if vEnd <= v0 {
		t.Errorf("blast did not grow: %d -> %d refined cells", v0, vEnd)
	}
	// Debris appears: deeper refinement exists late in the run.
	if tr.Snapshots[len(tr.Snapshots)-1].H.Depth() != 3 {
		t.Errorf("no debris cores late in the run (depth %d)",
			tr.Snapshots[len(tr.Snapshots)-1].H.Depth())
	}
}

func TestAstroTracesDriveThePipeline(t *testing.T) {
	// Both applications run end-to-end through characterization and
	// adaptive replay — Pragma is application-generic.
	cfg := SmallConfig()
	machine := cluster.SP2(16)
	for _, ph := range []Phenomenon{NewGalaxy(cfg, 10), NewSupernova(cfg)} {
		tr, err := GenerateTrace(cfg, ph)
		if err != nil {
			t.Fatalf("%s: %v", ph.Name(), err)
		}
		chars, err := octant.CharacterizeTrace(tr, octant.DefaultThresholds(), 3)
		if err != nil {
			t.Fatalf("%s: %v", ph.Name(), err)
		}
		seen := map[octant.Octant]bool{}
		for _, c := range chars {
			seen[c.Octant] = true
		}
		if len(seen) < 2 {
			t.Errorf("%s: trajectory visits only %d octants", ph.Name(), len(seen))
		}
		res, err := core.Run(tr, core.Adaptive{ImbalanceGuard: 20},
			core.RunConfig{Machine: machine, NProcs: 16})
		if err != nil {
			t.Fatalf("%s: %v", ph.Name(), err)
		}
		if res.TotalTime <= 0 {
			t.Errorf("%s: empty replay", ph.Name())
		}
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ratio = 0
	if _, err := GenerateTrace(cfg, NewSupernova(DefaultConfig())); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSupernovaAsymmetry(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSupernova(cfg)
	// Direction octants expand at different rates (asphericity).
	idx := 10
	r := map[float64]bool{}
	for o := 0; o < 8; o++ {
		r[s.shellRadius(idx, o)] = true
	}
	if len(r) < 4 {
		t.Errorf("blast too spherical: %d distinct radii", len(r))
	}
	// Radii saturate at the domain boundary.
	base := float64(cfg.BaseDims[0])
	for o := 0; o < 8; o++ {
		if got := s.shellRadius(1000, o); got > 0.46*base {
			t.Errorf("shell radius %g escapes the domain", got)
		}
	}
}

func TestGalaxyDeterminism(t *testing.T) {
	cfg := SmallConfig()
	a, err := GenerateTrace(cfg, NewGalaxy(cfg, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrace(cfg, NewGalaxy(cfg, 10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Snapshots {
		if samr.ChangeFraction(a.Snapshots[i].H, b.Snapshots[i].H, 1) != 0 {
			t.Fatalf("snapshot %d differs between identical runs", i)
		}
	}
}

// TestGalaxyRunsEachMergerStepOnce: generating a trace asks for every
// snapshot's regions and cores, and concurrent readers ask for halo
// counts, yet the merger process runs each of its steps exactly once.
func TestGalaxyRunsEachMergerStepOnce(t *testing.T) {
	cfg := SmallConfig()
	g := NewGalaxy(cfg, 12)
	last := cfg.Snapshots() - 1
	done := make(chan int)
	for r := 0; r < 4; r++ {
		go func() {
			n := 0
			for idx := last; idx >= 0; idx-- {
				n += len(g.state(idx))
			}
			done <- n
		}()
	}
	if _, err := GenerateTrace(cfg, g); err != nil {
		t.Fatal(err)
	}
	want := 0
	for idx := 0; idx <= last; idx++ {
		want += len(NewGalaxy(cfg, 12).state(idx))
	}
	for r := 0; r < 4; r++ {
		if n := <-done; n != want {
			t.Errorf("a concurrent reader counted %d halos over the run, want %d", n, want)
		}
	}
	if g.steps != last {
		t.Fatalf("%d merger steps for %d snapshots, want %d", g.steps, cfg.Snapshots(), last)
	}
}
