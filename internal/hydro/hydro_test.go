package hydro

import (
	"math"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

func mustGrid(t testing.TB, nx, ny, nz int, dx float64) *Grid {
	t.Helper()
	g, err := NewGrid(nx, ny, nz, dx, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 4, 4, 0.1, 1.4); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := NewGrid(4, 4, 4, 0, 1.4); err == nil {
		t.Error("zero dx accepted")
	}
	if _, err := NewGrid(4, 4, 4, 0.1, 1.0); err == nil {
		t.Error("gamma 1 accepted")
	}
}

func TestPrimConservedRoundTrip(t *testing.T) {
	g := mustGrid(t, 2, 2, 2, 0.5)
	s := Conserved(g.Gamma, 1.3, 0.4, -0.2, 0.7, 2.1)
	rho, u, v, w, p := g.Prim(s)
	for _, c := range []struct{ got, want float64 }{
		{rho, 1.3}, {u, 0.4}, {v, -0.2}, {w, 0.7}, {p, 2.1},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("round trip: got %g want %g", c.got, c.want)
		}
	}
	// Degenerate state does not divide by zero.
	if rho, _, _, _, _ := g.Prim(State{}); rho != 0 {
		t.Fatal("zero state mishandled")
	}
}

func TestUniformStateIsSteady(t *testing.T) {
	// A constant state is an exact steady solution: nothing may change.
	g := mustGrid(t, 8, 8, 8, 0.1)
	s := Conserved(g.Gamma, 1, 0.3, -0.1, 0.2, 1)
	g.Fill(func(i, j, k int) State { return s })
	advance(g, 10, 0.4)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				got := g.At(i, j, k)
				if math.Abs(got.Rho-s.Rho) > 1e-12 || math.Abs(got.E-s.E) > 1e-11 {
					t.Fatalf("uniform state drifted at (%d,%d,%d): %+v", i, j, k, got)
				}
			}
		}
	}
}

func TestMassConservedBeforeWavesReachBoundary(t *testing.T) {
	g := mustGrid(t, 128, 4, 4, 1.0/128)
	SodX(g)
	before := totalMass(g)
	// Short run: waves stay inside the domain, outflow BCs see nothing.
	advanceTo(g, 0.05, 0.4)
	after := totalMass(g)
	if rel := math.Abs(after-before) / before; rel > 1e-10 {
		t.Fatalf("mass drifted by %.3e", rel)
	}
}

func TestSodShockTube(t *testing.T) {
	// The classic Sod problem (gamma=1.4): at t=0.2 the exact solution has
	// the shock near x=0.850, the contact near x=0.685, and a rarefaction
	// between x=0.263 and x=0.486. First-order Rusanov smears the features
	// but must place them correctly.
	nx := 256
	g := mustGrid(t, nx, 4, 4, 1.0/float64(nx))
	SodX(g)
	advanceTo(g, 0.2, 0.4)

	rho := make([]float64, nx)
	for i := 0; i < nx; i++ {
		rho[i] = g.At(i, 1, 1).Rho
	}
	// End states unchanged.
	if math.Abs(rho[2]-1) > 1e-6 {
		t.Fatalf("left state disturbed: rho=%g", rho[2])
	}
	if math.Abs(rho[nx-3]-0.125) > 1e-6 {
		t.Fatalf("right state disturbed: rho=%g", rho[nx-3])
	}
	// Density is non-increasing left to right (true for Sod's solution).
	for i := 1; i < nx; i++ {
		if rho[i] > rho[i-1]+1e-6 {
			t.Fatalf("density not monotone at i=%d: %g -> %g", i, rho[i-1], rho[i])
		}
	}
	// The shock: steepest descent in the right half; exact position 0.850.
	shock := steepestDrop(rho, nx*6/10, nx-1)
	if x := (float64(shock) + 0.5) / float64(nx); x < 0.80 || x > 0.90 {
		t.Errorf("shock at x=%.3f, want ~0.850", x)
	}
	// Post-shock plateau density: exact value 0.2656 (between contact and
	// shock); sample midway between the detected features.
	contact := steepestDrop(rho, nx/2, shock-4)
	if x := (float64(contact) + 0.5) / float64(nx); x < 0.60 || x > 0.76 {
		t.Errorf("contact at x=%.3f, want ~0.685", x)
	}
	mid := (contact + shock) / 2
	if math.Abs(rho[mid]-0.2656) > 0.03 {
		t.Errorf("post-shock density %.4f, want ~0.2656", rho[mid])
	}
	// Pressure plateau between contact and shock: exact 0.3031.
	_, _, _, _, p := g.Prim(g.At(mid, 1, 1))
	if math.Abs(p-0.3031) > 0.03 {
		t.Errorf("plateau pressure %.4f, want ~0.3031", p)
	}
}

// steepestDrop returns the index in [lo,hi) with the largest rho[i]-rho[i+1].
func steepestDrop(rho []float64, lo, hi int) int {
	best, bestDrop := lo, -1.0
	for i := lo; i < hi && i+1 < len(rho); i++ {
		if d := rho[i] - rho[i+1]; d > bestDrop {
			best, bestDrop = i, d
		}
	}
	return best
}

func TestStableDtPositive(t *testing.T) {
	g := mustGrid(t, 8, 4, 4, 0.1)
	SodX(g)
	dt := g.StableDt(0.4)
	if dt <= 0 || dt > 0.1 {
		t.Fatalf("dt = %g", dt)
	}
	// A cold, motionless grid has no wave speed; dt falls back to dx*cfl.
	g2 := mustGrid(t, 4, 4, 4, 0.1)
	if dt := g2.StableDt(0.5); dt != 0.05 {
		t.Fatalf("fallback dt = %g", dt)
	}
}

func TestFlagGradientsFindShock(t *testing.T) {
	nx := 128
	g := mustGrid(t, nx, 4, 4, 1.0/float64(nx))
	SodX(g)
	advanceTo(g, 0.1, 0.4)
	flags, err := FlagGradients(g, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if flags.Count() == 0 {
		t.Fatal("no cells flagged around shock")
	}
	// Flags concentrate in the wave region, not the undisturbed ends.
	if flags.CountIn(samr.MakeBox(8, 4, 4)) != 0 {
		t.Error("undisturbed left end flagged")
	}
	if _, err := FlagGradients(g, 0); err == nil {
		t.Error("zero threshold accepted")
	}
}

func TestBuildHierarchyCoversShock(t *testing.T) {
	nx := 128
	g := mustGrid(t, nx, 8, 8, 1.0/float64(nx))
	SodX(g)
	advanceTo(g, 0.1, 0.4)
	h, err := BuildHierarchy(g, 2, 0.02, samr.DefaultClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 2 {
		t.Fatalf("depth = %d", h.Depth())
	}
	// The shock (speed 1.752, so x = 0.5 + 0.175 at t=0.1) must lie inside
	// a refined box.
	shockCell := int(0.675 * float64(nx))
	covered := false
	for _, b := range h.Levels[1] {
		coarse := b.Coarsen(2)
		if coarse.Contains(samr.Point{shockCell, 4, 4}) {
			covered = true
		}
	}
	if !covered {
		t.Errorf("refinement misses the shock at cell %d: %v", shockCell, h.Levels[1])
	}
}

func TestTraceRunProducesUsableTrace(t *testing.T) {
	nx := 64
	g := mustGrid(t, nx, 4, 4, 1.0/float64(nx))
	SodX(g)
	tr, err := TraceRun(g, 40, 8, 0.4, 0.02, samr.DefaultClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Snapshots) != 6 { // initial + 5 regrids
		t.Fatalf("snapshots = %d", len(tr.Snapshots))
	}
	for _, s := range tr.Snapshots {
		if err := s.H.Validate(); err != nil {
			t.Fatalf("snapshot %d: %v", s.Index, err)
		}
	}
	// The refined region moves with the waves: change fraction nonzero.
	moved := false
	for i := 1; i < len(tr.Snapshots); i++ {
		if samr.ChangeFraction(tr.Snapshots[i-1].H, tr.Snapshots[i].H, 1) > 0 {
			moved = true
		}
	}
	if !moved {
		t.Error("refined region never moved across the run")
	}
	if _, err := TraceRun(g, 8, 0, 0.4, 0.02, samr.DefaultClusterOptions()); err == nil {
		t.Error("zero regrid interval accepted")
	}
}

func BenchmarkStep(b *testing.B) {
	g := mustGrid(b, 64, 16, 16, 1.0/64)
	SodX(g)
	dt := g.StableDt(0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Step(dt)
	}
}

// advance runs steps under the given CFL number.
func advance(g *Grid, steps int, cfl float64) {
	for s := 0; s < steps; s++ {
		g.Step(g.StableDt(cfl))
	}
}

// advanceTo integrates until time tEnd (the last step is shortened).
func advanceTo(g *Grid, tEnd, cfl float64) {
	for t, steps := 0.0, 0; t < tEnd; steps++ {
		if steps > 1<<20 {
			panic("hydro: advanceTo runaway")
		}
		dt := g.StableDt(cfl)
		if t+dt > tEnd {
			dt = tEnd - t
		}
		g.Step(dt)
		t += dt
	}
}

// totalMass returns the integrated density (cell volume factored out).
func totalMass(g *Grid) float64 {
	var m float64
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				m += g.At(i, j, k).Rho
			}
		}
	}
	return m
}
