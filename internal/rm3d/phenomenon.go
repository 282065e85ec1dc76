package rm3d

import (
	"math"
	"math/rand"
	"sync"

	"github.com/pragma-grid/pragma/internal/samr"
)

// Phase identifies a structural phase of the Richtmyer–Meshkov run. Each
// phase has a characteristic adaptation pattern (localized/scattered),
// refinement geometry (solid regions vs thin sheets — the proxy for
// computation- vs communication-dominated execution) and activity dynamics
// (how fast the refined region moves between regrids).
type Phase int

// The eight phases, in temporal order.
const (
	// PhasePerturbation: the initial broadband interface perturbation —
	// scattered solid blobs, nearly static.
	PhasePerturbation Phase = iota
	// PhaseShockLaunch: the incident shock forms — a thick compressed slab
	// advancing quickly.
	PhaseShockLaunch
	// PhaseSteadyShock: quasi-steady propagation — a thin shock sheet
	// creeping toward the interface.
	PhaseSteadyShock
	// PhaseInteraction: shock/interface interaction — many small sheet
	// fragments, rapidly re-arranging.
	PhaseInteraction
	// PhaseMixingGrowth: the mixing zone grows — scattered solid blobs
	// drifting and expanding quickly.
	PhaseMixingGrowth
	// PhaseLateMixing: late-time mixing — scattered thin filaments,
	// quasi-static.
	PhaseLateMixing
	// PhaseReshock: the reflected shock sweeps back — a single thin sheet
	// moving fast.
	PhaseReshock
	// PhaseConsolidation: post-reshock consolidation — one solid slowly
	// evolving block.
	PhaseConsolidation
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePerturbation:
		return "perturbation"
	case PhaseShockLaunch:
		return "shock-launch"
	case PhaseSteadyShock:
		return "steady-shock"
	case PhaseInteraction:
		return "interaction"
	case PhaseMixingGrowth:
		return "mixing-growth"
	case PhaseLateMixing:
		return "late-mixing"
	case PhaseReshock:
		return "reshock"
	case PhaseConsolidation:
		return "consolidation"
	default:
		return "unknown"
	}
}

// phaseFractions are the cumulative snapshot-index fractions at which each
// phase ends. Chosen so that, with the paper's 202-snapshot run, the
// snapshots Table 3 samples (0, 5, 25, 106, 137, 162, 174, 201) fall in
// phases producing octants IV, VII, I, VI, VIII, II, V and III respectively.
var phaseFractions = [8]float64{
	0.0149, // perturbation ends before snapshot 3/202
	0.0792, // shock launch ends before 16/202
	0.4752, // steady shock ends before 96/202
	0.5990, // interaction ends before 121/202
	0.7475, // mixing growth ends before 151/202
	0.8366, // late mixing ends before 169/202
	0.9208, // reshock ends before 186/202
	1.0001, // consolidation runs to the end
}

// PhaseAt returns the phase active at snapshot index idx of a run with
// total snapshots.
func (c Config) PhaseAt(idx int) Phase {
	total := c.Snapshots()
	f := float64(idx) / float64(total)
	for p, end := range phaseFractions {
		if f < end {
			return Phase(p)
		}
	}
	return PhaseConsolidation
}

// phaseStart returns the first snapshot index of phase p.
func (c Config) phaseStart(p Phase) int {
	if p == 0 {
		return 0
	}
	total := c.Snapshots()
	return int(math.Ceil(phaseFractions[p-1] * float64(total)))
}

// floatBox is an axis-aligned region in continuous level-0 coordinates.
// Features move in fractional cells between regrids; rasterization to a
// given level happens at flagging time.
type floatBox struct {
	lo, hi [3]float64
}

// cells rasterizes the region onto level l of a ratio-r hierarchy, rounding
// outward, and clips it to the level domain.
func (fb floatBox) cells(domain samr.Box, ratio, level int) (samr.Box, bool) {
	scale := 1.0
	dom := domain
	for i := 0; i < level; i++ {
		scale *= float64(ratio)
		dom = dom.Refine(ratio)
	}
	var b samr.Box
	for d := 0; d < 3; d++ {
		b.Lo[d] = int(math.Floor(fb.lo[d] * scale))
		b.Hi[d] = int(math.Ceil(fb.hi[d] * scale))
		if b.Hi[d] <= b.Lo[d] {
			b.Hi[d] = b.Lo[d] + 1
		}
	}
	return b.Intersect(dom)
}

// shrink returns the region scaled toward its center by factor f per axis
// (0 < f <= 1), used to derive the deeper-refinement core of a feature.
func (fb floatBox) shrink(f float64) floatBox {
	var out floatBox
	for d := 0; d < 3; d++ {
		c := (fb.lo[d] + fb.hi[d]) / 2
		h := (fb.hi[d] - fb.lo[d]) / 2 * f
		out.lo[d], out.hi[d] = c-h, c+h
	}
	return out
}

// feature is one refinement-worthy region of the phenomenon: a solid blob,
// slab, or thin sheet.
type feature struct {
	region floatBox
	// coreShrink scales the region down to its level-2 core; 0 means the
	// feature needs only one level of refinement.
	coreShrink float64
}

// randPool recycles the generators features draws scattered layouts
// from: a fresh rand.NewSource is about 4.9 KB, and features runs for
// every snapshot a trace generates and at every regrid a run weighs
// (WorkModel). Re-seeding a generator puts it in exactly the state a
// fresh source with that seed starts in.
var randPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// features returns the refinement features active at snapshot idx,
// deterministically derived from the config seed.
func (c Config) features(idx int) []feature {
	rng := randPool.Get().(*rand.Rand)
	defer randPool.Put(rng)
	return c.featuresSeeded(idx, func(seed int64) *rand.Rand {
		rng.Seed(seed)
		return rng
	})
}

// featuresSeeded is features drawing from seeded(seed), which must return
// a generator in the state rand.New(rand.NewSource(seed)) starts in.
func (c Config) featuresSeeded(idx int, seeded func(seed int64) *rand.Rand) []feature {
	nx := float64(c.BaseDims[0])
	ny := float64(c.BaseDims[1])
	nz := float64(c.BaseDims[2])
	phase := c.PhaseAt(idx)
	start := c.phaseStart(phase)
	age := idx - start

	switch phase {
	case PhasePerturbation:
		// Scattered solid blobs near the unshocked interface; static.
		rng := seeded(c.Seed + 11)
		return scatterBlobs(rng, 10, [2]float64{0.30, 0.62}, nx, ny, nz,
			[3]float64{0.050 * nx, 0.17 * ny, 0.17 * nz}, 0.7)

	case PhaseShockLaunch:
		// Thick compressed slab behind the accelerating shock front.
		front := 0.06 + 0.05*float64(age)
		back := front - 0.10
		if back < 0.01 {
			back = 0.01
		}
		return []feature{{
			region:     floatBox{lo: [3]float64{back * nx, 0, 0}, hi: [3]float64{front * nx, ny, nz}},
			coreShrink: 0.7,
		}}

	case PhaseSteadyShock:
		// Thin shock sheet creeping toward the interface at 0.75*nx.
		front := 0.66 + 0.0008*float64(age)
		return []feature{{
			region: floatBox{
				lo: [3]float64{(front - 0.008) * nx, 0, 0},
				hi: [3]float64{front * nx, ny, nz},
			},
			coreShrink: 0, // a thin sheet refines one level only
		}}

	case PhaseInteraction:
		// Shock meets the perturbed interface: many sheet fragments,
		// re-seeded every regrid (rapid re-arrangement).
		rng := seeded(c.Seed + 37 + int64(idx)*1009)
		return scatterSheets(rng, 12, [2]float64{0.70, 0.82}, nx, ny, nz, 0.012*nx, 0.26)

	case PhaseMixingGrowth:
		// Mixing zone grows: solid blobs drifting downstream quickly,
		// re-seeded every few regrids.
		epoch := age / 6
		rng := seeded(c.Seed + 53 + int64(epoch)*911)
		blobs := scatterBlobs(rng, 12, [2]float64{0.66, 0.84}, nx, ny, nz,
			[3]float64{0.050 * nx, 0.16 * ny, 0.16 * nz}, 0.7)
		drift := 0.025 * nx * float64(age%6)
		for i := range blobs {
			blobs[i].region.lo[0] += drift
			blobs[i].region.hi[0] += drift
		}
		return blobs

	case PhaseLateMixing:
		// Quasi-static thin filaments in the mixed region.
		rng := seeded(c.Seed + 71)
		return scatterSheets(rng, 10, [2]float64{0.66, 0.90}, nx, ny, nz, 0.012*nx, 0.26)

	case PhaseReshock:
		// Reflected shock sweeps back through the domain.
		front := 0.95 - 0.045*float64(age)
		if front < 0.05 {
			front = 0.05
		}
		return []feature{{
			region: floatBox{
				lo: [3]float64{(front - 0.008) * nx, 0, 0},
				hi: [3]float64{front * nx, ny, nz},
			},
			coreShrink: 0,
		}}

	default: // PhaseConsolidation
		// One consolidated mixing block, slowly thickening.
		grow := 0.002 * float64(age)
		return []feature{{
			region: floatBox{
				lo: [3]float64{(0.66 - grow) * nx, 0.18 * ny, 0.18 * nz},
				hi: [3]float64{(0.90 + grow) * nx, 0.82 * ny, 0.82 * nz},
			},
			coreShrink: 0.7,
		}}
	}
}

// scatterBlobs places n solid blob features with centers uniformly in
// xRange (fractions of nx) and the full y/z interior.
func scatterBlobs(rng *rand.Rand, n int, xRange [2]float64, nx, ny, nz float64, half [3]float64, core float64) []feature {
	out := make([]feature, 0, n)
	for i := 0; i < n; i++ {
		cx := (xRange[0] + rng.Float64()*(xRange[1]-xRange[0])) * nx
		cy := (0.15 + 0.7*rng.Float64()) * ny
		cz := (0.15 + 0.7*rng.Float64()) * nz
		out = append(out, feature{
			region: floatBox{
				lo: [3]float64{cx - half[0], cy - half[1], cz - half[2]},
				hi: [3]float64{cx + half[0], cy + half[1], cz + half[2]},
			},
			coreShrink: core,
		})
	}
	return out
}

// scatterSheets places n thin sheet fragments (thickness `thick` along x,
// lateral extent `lat` fraction of ny/nz).
func scatterSheets(rng *rand.Rand, n int, xRange [2]float64, nx, ny, nz, thick, lat float64) []feature {
	out := make([]feature, 0, n)
	for i := 0; i < n; i++ {
		cx := (xRange[0] + rng.Float64()*(xRange[1]-xRange[0])) * nx
		cy := (0.15 + 0.7*rng.Float64()) * ny
		cz := (0.15 + 0.7*rng.Float64()) * nz
		hy, hz := lat*ny/2, lat*nz/2
		out = append(out, feature{
			region: floatBox{
				lo: [3]float64{cx - thick/2, cy - hy, cz - hz},
				hi: [3]float64{cx + thick/2, cy + hy, cz + hz},
			},
			coreShrink: 0, // sheets refine one level only
		})
	}
	return out
}
