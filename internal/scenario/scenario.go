// Package scenario is Pragma's programmable phenomenon generator: a
// composable library of refinement drivers (moving planar shocks, point
// sources, merging fronts, oscillating or scattered activity, static
// background noise) that are combined by a scenario specification into a
// synthetic adaptation trace, exactly like rm3d.GenerateTrace produces for
// the paper's Richtmyer–Meshkov run.
//
// The point of the package is octant coverage. The paper's whole value
// proposition — octant characterization (Fig. 2) driving runtime
// partitioner selection (Table 2) — is only as validated as the workloads
// that exercise it, and a single hard-coded RM3D phase script visits each
// octant on one fixed trajectory. Every scenario driver instead *declares*
// the octant signature its geometry is engineered to produce (see
// Signature and DESIGN.md §13 for the contract), so generated scenarios
// carry a known octant trajectory that property tests can check the
// classifier and the meta-partitioner against. Scenarios with several
// phases switch driver sets mid-run — the adaptive compositional workloads
// of "Novel Runtime Systems Support for Adaptive Compositional Modeling on
// the Grid" (cs/0301018) — and exercise octant transitions and partitioner
// switching under core.Run.
//
// Generation is seed-explicit end to end: a scenario's single Seed is
// split into one independent sub-seed per (phase, driver) pair, no
// package-level math/rand state is consulted, and equal seeds regenerate
// byte-identical traces (samr.WriteTrace output is reproducible).
package scenario

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/samr"
)

// Signature is the octant signature a driver declares: the half-space of
// each characterization axis its refinement geometry is engineered to
// occupy. The generator's contract (DESIGN.md §13) is that a single-driver
// phase, measured on hierarchy level 1 after a warm-up snapshot, classifies
// into Signature().Octant() under octant.DefaultThresholds().
type Signature struct {
	// HigherDynamics: the refined region relocates by more than the
	// dynamics threshold between regrids (moving, oscillating or re-seeded
	// features) rather than staying put.
	HigherDynamics bool
	// CommDominated: the refined region is thin and sheet-like (high
	// surface-to-volume), so ghost exchange dominates; false means solid
	// blocks where computation dominates.
	CommDominated bool
	// Scattered: the refinement is spread across the domain in several
	// disconnected features rather than one localized region.
	Scattered bool
}

// Octant returns the octant the signature identifies.
func (s Signature) Octant() octant.Octant {
	return octant.FromAxes(s.HigherDynamics, s.CommDominated, s.Scattered)
}

// Env gives a driver the level-0 grid extents it places features in.
type Env struct {
	Nx, Ny, Nz float64
}

// Driver is one phenomenon ingredient: it produces the refinement features
// active at a given age (snapshots since its phase started) and declares
// the octant signature its geometry targets. Implementations must derive
// all randomness from the seed they are handed — never from package-level
// math/rand state — so generation is deterministic per scenario seed.
type Driver interface {
	// Name identifies the driver in specs and reports.
	Name() string
	// Signature declares the octant half-spaces the driver's features are
	// engineered to occupy.
	Signature() Signature
	// Features returns the active features at the given phase-local age.
	// seed is the driver's private sub-seed for this scenario.
	Features(age int, env Env, seed int64) []samr.Feature
}

// Phase is one segment of a scenario: a driver mix active for a number of
// regrid snapshots.
type Phase struct {
	// Name labels the phase in reports (defaults to the driver names).
	Name string
	// Snapshots is how many regrid snapshots the phase covers (>= 1).
	Snapshots int
	// Drivers is the mix of phenomenon ingredients active in the phase.
	Drivers []Driver
	// Expect pins the octant the phase is expected to classify into;
	// 0 derives it from the drivers' signatures (only when they all
	// agree — mixed-signature phases have no derived expectation).
	Expect octant.Octant
}

// Expected returns the octant the phase is expected to occupy and whether
// an expectation exists: the pinned Expect, or the common signature octant
// when every driver agrees.
func (p Phase) Expected() (octant.Octant, bool) {
	if p.Expect.Valid() {
		return p.Expect, true
	}
	if len(p.Drivers) == 0 {
		return 0, false
	}
	o := p.Drivers[0].Signature().Octant()
	for _, d := range p.Drivers[1:] {
		if d.Signature().Octant() != o {
			return 0, false
		}
	}
	return o, true
}

// Label returns the phase name, defaulting to the driver names joined
// with "+".
func (p Phase) Label() string {
	if p.Name != "" {
		return p.Name
	}
	s := ""
	for i, d := range p.Drivers {
		if i > 0 {
			s += "+"
		}
		s += d.Name()
	}
	if s == "" {
		s = "empty"
	}
	return s
}

// Spec is a complete scenario: the grid envelope plus the phase script.
type Spec struct {
	// Name identifies the scenario (the generated trace's Name).
	Name string
	// BaseDims is the level-0 grid size.
	BaseDims [3]int
	// MaxDepth is the number of hierarchy levels (1-3).
	MaxDepth int
	// Ratio is the refinement factor between levels.
	Ratio int
	// RegridEvery is the number of coarse steps between snapshots.
	RegridEvery int
	// Seed is the single scenario seed; sub-seeds for every (phase,
	// driver) pair are split from it deterministically.
	Seed int64
	// Cluster configures the Berger–Rigoutsos clusterer.
	Cluster samr.ClusterOptions
	// Phases is the scenario script, in temporal order.
	Phases []Phase
}

// Default returns the standard scenario envelope: a 48x24x24 base grid
// (large enough that solid comp-dominated features and thin comm-dominated
// sheets are both representable, small enough for property-test corpora),
// 3 levels of factor-2 refinement, regridding every 4 steps. Attach phases
// and a seed to make it runnable.
func Default() Spec {
	return Spec{
		Name:        "scenario",
		BaseDims:    [3]int{48, 24, 24},
		MaxDepth:    3,
		Ratio:       2,
		RegridEvery: 4,
		Seed:        1,
		Cluster:     samr.DefaultClusterOptions(),
	}
}

// Validate checks the specification.
func (s Spec) Validate() error {
	for d := 0; d < 3; d++ {
		if s.BaseDims[d] < 8 {
			return fmt.Errorf("scenario: base dimension %d = %d too small (min 8)", d, s.BaseDims[d])
		}
		if s.BaseDims[d] > 1024 {
			return fmt.Errorf("scenario: base dimension %d = %d too large (max 1024)", d, s.BaseDims[d])
		}
	}
	if n := s.BaseDims[0] * s.BaseDims[1] * s.BaseDims[2]; n > 1<<22 {
		return fmt.Errorf("scenario: base grid of %d cells too large (max %d)", n, 1<<22)
	}
	if s.MaxDepth < 1 || s.MaxDepth > samr.MaxRegridDepth {
		return fmt.Errorf("scenario: max depth %d out of range [1,%d]", s.MaxDepth, samr.MaxRegridDepth)
	}
	if s.Ratio < 2 {
		return fmt.Errorf("scenario: ratio %d < 2", s.Ratio)
	}
	if s.RegridEvery < 1 {
		return fmt.Errorf("scenario: regrid interval %d < 1", s.RegridEvery)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario: no phases")
	}
	if len(s.Phases) > 32 {
		return fmt.Errorf("scenario: %d phases (max 32)", len(s.Phases))
	}
	total := 0
	for i, p := range s.Phases {
		if p.Snapshots < 1 {
			return fmt.Errorf("scenario: phase %d (%s) has %d snapshots", i, p.Label(), p.Snapshots)
		}
		if len(p.Drivers) == 0 {
			return fmt.Errorf("scenario: phase %d (%s) has no drivers", i, p.Label())
		}
		if len(p.Drivers) > 8 {
			return fmt.Errorf("scenario: phase %d (%s) has %d drivers (max 8)", i, p.Label(), len(p.Drivers))
		}
		total += p.Snapshots
	}
	if total > 2048 {
		return fmt.Errorf("scenario: %d total snapshots (max 2048)", total)
	}
	return nil
}

// TotalSnapshots returns the number of trace snapshots the spec produces.
func (s Spec) TotalSnapshots() int {
	n := 0
	for _, p := range s.Phases {
		n += p.Snapshots
	}
	return n
}

// PhaseAt returns the phase index and phase-local age of snapshot idx.
func (s Spec) PhaseAt(idx int) (phase, age int) {
	for i, p := range s.Phases {
		if idx < p.Snapshots {
			return i, idx
		}
		idx -= p.Snapshots
	}
	last := len(s.Phases) - 1
	return last, s.Phases[last].Snapshots - 1
}

// PhaseExpectation is one entry of the scenario's declared octant
// trajectory: the snapshot range a phase covers and the octant it is
// expected to classify into.
type PhaseExpectation struct {
	Phase string
	// Start and End are the snapshot index range [Start, End) of the phase.
	Start, End int
	// Octant is the expected octant; Known is false for mixed-signature
	// phases with no expectation.
	Octant octant.Octant
	Known  bool
}

// Trajectory returns the declared octant trajectory of the scenario, one
// entry per phase.
func (s Spec) Trajectory() []PhaseExpectation {
	out := make([]PhaseExpectation, 0, len(s.Phases))
	at := 0
	for _, p := range s.Phases {
		o, ok := p.Expected()
		out = append(out, PhaseExpectation{
			Phase: p.Label(), Start: at, End: at + p.Snapshots, Octant: o, Known: ok,
		})
		at += p.Snapshots
	}
	return out
}

// env returns the driver placement environment.
func (s Spec) env() Env {
	return Env{Nx: float64(s.BaseDims[0]), Ny: float64(s.BaseDims[1]), Nz: float64(s.BaseDims[2])}
}

// Domain returns the level-0 domain box.
func (s Spec) Domain() samr.Box {
	return samr.MakeBox(s.BaseDims[0], s.BaseDims[1], s.BaseDims[2])
}

// SubSeed splits the scenario seed into the private sub-seed of the given
// (phase, driver) pair, using a splitmix64-style finalizer so nearby seeds
// and indices decorrelate. Exported so tests can reproduce a driver's
// stream in isolation.
func SubSeed(seed int64, phase, driver int) int64 {
	z := uint64(seed)
	z += 0x9e3779b97f4a7c15 * uint64(phase+1)
	z += 0xbf58476d1ce4e5b9 * uint64(driver+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// features returns the features active at snapshot idx: the union over the
// active phase's drivers, each driven by its own sub-seed.
func (s Spec) features(idx int) []samr.Feature {
	pi, age := s.PhaseAt(idx)
	env := s.env()
	var out []samr.Feature
	for di, d := range s.Phases[pi].Drivers {
		out = append(out, d.Features(age, env, SubSeed(s.Seed, pi, di))...)
	}
	return out
}

// HierarchyAt regrids the hierarchy for snapshot idx: it flags the active
// drivers' features on each level and clusters the flags with
// Berger–Rigoutsos, enforcing proper nesting — the pipeline
// (samr.FeatureHierarchy) rm3d.HierarchyAt drives with its hard-coded phase
// script.
func (s Spec) HierarchyAt(idx int) (*samr.Hierarchy, error) {
	return samr.FeatureHierarchy(s.Domain(), s.Ratio, s.MaxDepth, s.Cluster, s.features(idx))
}

// Generate runs the scenario through the regrid loop and returns the
// adaptation trace, exactly the artifact rm3d.GenerateTrace produces: one
// hierarchy snapshot per regrid step, ready for octant characterization
// and core.Run replay.
func (s Spec) Generate() (*samr.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	return samr.GenerateTrace("scenario", name, s.TotalSnapshots(), s.RegridEvery, s.HierarchyAt)
}

// WorkModel returns the computational cost model at snapshot idx: a
// uniform base cost with a surcharge inside the active features (the same
// front-tracking surcharge rm3d models).
func (s Spec) WorkModel(idx int) samr.WorkModel {
	return samr.FeatureWorkModel(s.Domain(), s.features(idx))
}
