// Package rm3d models the adaptive behavior of RM3D, the 3-D compressible
// turbulence kernel (Richtmyer–Meshkov instability) used throughout the
// paper's evaluation.
//
// The original RM3D is a Fortran hydrodynamics code we do not have. Pragma,
// however, never inspects the flow solution — it characterizes the
// application through its *adaptation trace*: snapshots of the SAMR grid
// hierarchy at each regrid step (§4.5). This package therefore implements a
// synthetic Richtmyer–Meshkov phenomenon model that reproduces the
// *structural* phases of an RM run — shock launch, steady propagation,
// shock/interface interaction, mixing-zone growth, reshock, and late-time
// consolidation — and drives real error flagging, Berger–Rigoutsos
// clustering and regridding with it. The resulting trace has the paper's
// shape: a 128x32x32 base grid, 3 levels of factor-2 space-time refinement,
// regridding every 4 steps, 800+ coarse steps, 200+ snapshots, and an octant
// trajectory visiting all eight octants (Table 3).
package rm3d

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/samr"
)

// Config describes an RM3D trace generation run.
type Config struct {
	// BaseDims is the level-0 grid size. The paper uses 128x32x32.
	BaseDims [3]int
	// MaxDepth is the number of hierarchy levels (1-3). The paper uses 3
	// ("3 levels of factor 2 space-time refinements").
	MaxDepth int
	// Ratio is the refinement factor between levels (2 in the paper).
	Ratio int
	// RegridEvery is the number of coarse steps between regrids (4).
	RegridEvery int
	// CoarseSteps is the number of coarse time-steps to run (the paper ran
	// 800; the default runs 804 so the trace has snapshot indices 0..201,
	// covering every time-step Table 3 references).
	CoarseSteps int
	// Seed makes the phenomenon's pseudo-random feature placement
	// deterministic.
	Seed int64
	// Cluster configures the Berger–Rigoutsos clusterer.
	Cluster samr.ClusterOptions
}

// DefaultConfig returns the paper's experimental configuration (§4.5).
func DefaultConfig() Config {
	return Config{
		BaseDims:    [3]int{128, 32, 32},
		MaxDepth:    3,
		Ratio:       2,
		RegridEvery: 4,
		CoarseSteps: 804,
		Seed:        2002,
		Cluster:     samr.DefaultClusterOptions(),
	}
}

// SmallConfig returns a reduced configuration for fast tests: a quarter-size
// domain and a short run that still traverses every phenomenon phase.
func SmallConfig() Config {
	c := DefaultConfig()
	c.BaseDims = [3]int{64, 16, 16}
	c.CoarseSteps = 160 // 41 snapshots
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.BaseDims[d] < 8 {
			return fmt.Errorf("rm3d: base dimension %d = %d too small (min 8)", d, c.BaseDims[d])
		}
	}
	if c.MaxDepth < 1 || c.MaxDepth > samr.MaxRegridDepth {
		return fmt.Errorf("rm3d: max depth %d out of range [1,%d]", c.MaxDepth, samr.MaxRegridDepth)
	}
	if c.Ratio < 2 {
		return fmt.Errorf("rm3d: ratio %d < 2", c.Ratio)
	}
	if c.RegridEvery < 1 {
		return fmt.Errorf("rm3d: regrid interval %d < 1", c.RegridEvery)
	}
	if c.CoarseSteps < c.RegridEvery {
		return fmt.Errorf("rm3d: %d coarse steps shorter than one regrid interval", c.CoarseSteps)
	}
	return nil
}

// Snapshots returns the number of trace snapshots the configuration
// produces: one initial snapshot plus one per regrid.
func (c Config) Snapshots() int { return c.CoarseSteps/c.RegridEvery + 1 }

// Domain returns the level-0 domain box.
func (c Config) Domain() samr.Box { return samr.MakeBox(c.BaseDims[0], c.BaseDims[1], c.BaseDims[2]) }
