package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/pragma-grid/pragma/internal/octant"
)

// This file implements the driver library. Each driver's geometry is
// engineered against octant.DefaultThresholds() (Dynamics 0.15, CommRatio
// 0.48, Dispersion 0.30, all measured on hierarchy level 1):
//
//   - Communication-dominated features are thin sheets: thickness < 1
//     level-0 cell, so outward rasterization yields 1-2 level-0 cells
//     (2-4 at level 1 with ratio 2) and surface-to-volume stays >= 0.58.
//   - Computation-dominated features are solid blocks with level-0 extents
//     >= 7 cells per axis (>= 14 at level 1), so surface-to-volume stays
//     <= 0.43.
//   - Higher-dynamics features relocate by at least their own extent per
//     snapshot (wrap-around sweeps, alternating oscillation, pulsed
//     growth), driving the regrid change fraction far above 0.15; static
//     features pin it to 0.
//   - Scattered drivers place several disconnected features on separated
//     anchor stations, keeping level-1 dispersion high; localized drivers
//     produce a single solid region with dispersion ~0.
//
// Randomness is placement jitter only, drawn from the driver's sub-seed
// with a fixed number of draws independent of age, so a driver's feature
// track is a pure function of (seed, age).

// Activity is the dynamics dial of a driver: Low produces static features
// (lower-activity octants I-IV), High produces features that relocate
// every regrid (higher-activity octants V-VIII).
type Activity int

// The two activity levels.
const (
	Low Activity = iota
	High
)

// String names the activity level.
func (a Activity) String() string {
	if a == High {
		return "high"
	}
	return "low"
}

// suffix appends ".high" to high-activity driver names; low is the
// unmarked default.
func suffix(name string, act Activity) string {
	if act == High {
		return name + ".high"
	}
	return name
}

// sheetThickness is the planar-sheet thickness in level-0 cells. Keeping
// it below 1 guarantees outward rasterization produces 1-2 level-0 cells,
// which is what makes sheets communication-dominated.
const sheetThickness = 0.9

// wrapSweep advances a coordinate monotonically with wrap-around re-entry:
// consecutive positions always differ by speed (or by nearly the whole
// span at the wrap), so a sweeping feature never has a low-motion snapshot
// the way a bouncing one does at its turning points.
func wrapSweep(p0, speed float64, age int, lo, span float64) float64 {
	return lo + math.Mod(p0+speed*float64(age), span)
}

// oscSign alternates +1/-1 per snapshot, staggered by the feature index so
// a field of features breathes instead of translating rigidly.
func oscSign(age, i int) float64 {
	if (age+i)%2 == 0 {
		return 1
	}
	return -1
}

// Sheet is a single planar sheet spanning the full y/z cross-section —
// the thin tracked front of the paper's shock phases. Low activity holds
// it in place (octant I); High sweeps it through the domain with
// wrap-around re-entry — a moving planar shock (octant V).
type sheet struct {
	act Activity
	// speed is the sweep speed in level-0 cells per snapshot (High only).
	speed float64
}

// Sheet returns a single full-cross-section planar sheet driver: static
// under Low (octant I), a moving planar shock under High (octant V).
func Sheet(act Activity) Driver { return sheet{act: act, speed: 4} }

func (s sheet) Name() string { return suffix("sheet", s.act) }

func (s sheet) Signature() Signature {
	return Signature{HigherDynamics: s.act == High, CommDominated: true, Scattered: false}
}

func (s sheet) Features(age int, env Env, seed int64) []Feature {
	rng := rand.New(rand.NewSource(seed))
	p0 := (0.25 + 0.5*rng.Float64()) * env.Nx
	x := p0
	if s.act == High {
		x = wrapSweep(p0, s.speed, age, 0.12*env.Nx, 0.76*env.Nx)
	}
	return []Feature{{
		Lo: [3]float64{x - sheetThickness/2, 0, 0},
		Hi: [3]float64{x + sheetThickness/2, env.Ny, env.Nz},
	}}
}

// sheetField is a field of scattered partial sheets — the fragmented
// interaction fronts of the paper's shock/interface phases. Low holds the
// fragments static (octant II); High oscillates each fragment along x by
// more than its thickness every snapshot (octant VI).
type sheetField struct {
	n   int
	act Activity
}

// SheetField returns a scattered field of n thin sheet fragments (n
// clamped to [2, 8]): static under Low (octant II), oscillating under High
// (octant VI).
func SheetField(n int, act Activity) Driver {
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return sheetField{n: n, act: act}
}

func (s sheetField) Name() string { return suffix(fmt.Sprintf("sheets%d", s.n), s.act) }

func (s sheetField) Signature() Signature {
	return Signature{HigherDynamics: s.act == High, CommDominated: true, Scattered: true}
}

func (s sheetField) Features(age int, env Env, seed int64) []Feature {
	rng := rand.New(rand.NewSource(seed))
	hy := clampf(0.18*env.Ny, 2, 8)
	hz := clampf(0.18*env.Nz, 2, 8)
	out := make([]Feature, 0, s.n)
	for i := 0; i < s.n; i++ {
		x := float64(i+1) / float64(s.n+1) * env.Nx
		cy := (0.3 + 0.4*rng.Float64()) * env.Ny
		cz := (0.3 + 0.4*rng.Float64()) * env.Nz
		if s.act == High {
			x += 3 * oscSign(age, i)
		}
		out = append(out, Feature{
			Lo: [3]float64{x - sheetThickness/2, cy - hy, cz - hz},
			Hi: [3]float64{x + sheetThickness/2, cy + hy, cz + hz},
		})
	}
	return out
}

// block is a single solid computation-dominated region — a dense mixing
// block. Low holds it (octant III); High sweeps it along x with
// wrap-around (octant VII).
type block struct {
	act   Activity
	speed float64
}

// Block returns a single solid block driver: static under Low (octant
// III), sweeping under High (octant VII).
func Block(act Activity) Driver { return block{act: act, speed: 3} }

func (b block) Name() string { return suffix("block", b.act) }

func (b block) Signature() Signature {
	return Signature{HigherDynamics: b.act == High, CommDominated: false, Scattered: false}
}

func (b block) Features(age int, env Env, seed int64) []Feature {
	rng := rand.New(rand.NewSource(seed))
	hx := solidHalf(env.Nx)
	hy := solidHalf(env.Ny)
	hz := solidHalf(env.Nz)
	cx := (0.42 + 0.16*rng.Float64()) * env.Nx
	cy := (0.42 + 0.16*rng.Float64()) * env.Ny
	cz := (0.42 + 0.16*rng.Float64()) * env.Nz
	if b.act == High {
		cx = wrapSweep(cx, b.speed, age, 0.15*env.Nx, 0.7*env.Nx)
	}
	return []Feature{{
		Lo:         [3]float64{cx - hx, cy - hy, cz - hz},
		Hi:         [3]float64{cx + hx, cy + hy, cz + hz},
		CoreShrink: 0.6,
	}}
}

// solidHalf returns the half-extent of a solid computation-dominated
// feature along an axis of n cells: big enough (>= 3.6 cells, i.e. >= 14
// level-1 cells after outward rasterization) that surface-to-volume stays
// below the comm threshold, capped so the feature fits the axis.
func solidHalf(n float64) float64 { return clampf(0.175*n, 3.6, 7) }

// blobField is a field of scattered solid blobs — the paper's mixing-zone
// growth pattern. Low is static (octant IV); High oscillates each blob
// along y by more than half its extent every snapshot (octant VIII).
type blobField struct {
	n   int
	act Activity
}

// BlobField returns a scattered field of n solid blobs (n clamped to
// [2, 4] so blobs stay separated on the default grid): static under Low
// (octant IV), oscillating under High (octant VIII).
func BlobField(n int, act Activity) Driver {
	if n < 2 {
		n = 2
	}
	if n > 4 {
		n = 4
	}
	return blobField{n: n, act: act}
}

func (b blobField) Name() string { return suffix(fmt.Sprintf("blobs%d", b.n), b.act) }

func (b blobField) Signature() Signature {
	return Signature{HigherDynamics: b.act == High, CommDominated: false, Scattered: true}
}

func (b blobField) Features(age int, env Env, seed int64) []Feature {
	rng := rand.New(rand.NewSource(seed))
	// The x half-extent must leave a gap between adjacent anchor stations
	// even at worst-case jitter — touching blobs would merge into one
	// non-box region that the clusterer slices into thin high-S/V boxes.
	spacing := env.Nx / float64(b.n+1)
	hx := clampf(spacing/2-2.2, 3.6, 7)
	hy := solidHalf(env.Ny)
	hz := solidHalf(env.Nz)
	out := make([]Feature, 0, b.n)
	for i := 0; i < b.n; i++ {
		cx := float64(i+1)/float64(b.n+1)*env.Nx + (rng.Float64()-0.5)*1.6
		frac := 0.35
		if i%2 == 1 {
			frac = 0.65
		}
		cy := frac*env.Ny + (rng.Float64()-0.5)*2.4
		cz := (1-frac)*env.Nz + (rng.Float64()-0.5)*2.4
		if b.act == High {
			cy += 3.5 * oscSign(age, i)
		}
		out = append(out, Feature{
			Lo:         [3]float64{cx - hx, cy - hy, cz - hz},
			Hi:         [3]float64{cx + hx, cy + hy, cz + hz},
			CoreShrink: 0.6,
		})
	}
	return out
}

// pointSource is a solid region centered on a point. Low holds a fixed
// radius (octant III); High grows it in a pulse cycle — expand by a fixed
// increment per snapshot, reset on reaching the cap — so the refined
// volume changes by well over the dynamics threshold every regrid
// (octant VII).
type pointSource struct {
	act Activity
}

// PointSource returns a point-source driver: a solid region around a
// point, fixed-size under Low (octant III), pulse-growing under High
// (octant VII).
func PointSource(act Activity) Driver { return pointSource{act: act} }

func (p pointSource) Name() string { return suffix("point", p.act) }

func (p pointSource) Signature() Signature {
	return Signature{HigherDynamics: p.act == High, CommDominated: false, Scattered: false}
}

func (p pointSource) Features(age int, env Env, seed int64) []Feature {
	rng := rand.New(rand.NewSource(seed))
	cx := (0.45 + 0.1*rng.Float64()) * env.Nx
	cy := (0.45 + 0.1*rng.Float64()) * env.Ny
	cz := (0.45 + 0.1*rng.Float64()) * env.Nz
	minDim := math.Min(env.Nx, math.Min(env.Ny, env.Nz))
	// Both the smallest and the largest pulse radius stay in the solid
	// comp-dominated regime (>= 3.6 cells half-extent).
	h0 := 3.6
	hMax := clampf(0.25*minDim, h0, 7)
	h := hMax
	if p.act == High {
		const growth = 1.2
		cycle := int((hMax-h0)/growth) + 1
		h = h0 + growth*float64(age%cycle)
	}
	return []Feature{{
		Lo:         [3]float64{cx - h, cy - h, cz - h},
		Hi:         [3]float64{cx + h, cy + h, cz + h},
		CoreShrink: 0.6,
	}}
}

// mergingFronts is two full-cross-section sheets approaching each other
// along x until they merge into one consolidating slab: the scenario
// starts as scattered fast-moving comm-dominated refinement (octant VI)
// and transitions through localization toward a static slab (octant I) —
// an in-phase octant transition driver.
type mergingFronts struct{}

// MergingFronts returns the two-fronts-merging driver. Its declared
// signature is the initial approaching regime (octant VI); after the
// fronts meet the phase migrates toward octant I, which makes it the
// natural ingredient for octant-transition scenarios.
func MergingFronts() Driver { return mergingFronts{} }

func (mergingFronts) Name() string { return "merge" }

func (mergingFronts) Signature() Signature {
	return Signature{HigherDynamics: true, CommDominated: true, Scattered: true}
}

func (mergingFronts) Features(age int, env Env, seed int64) []Feature {
	rng := rand.New(rand.NewSource(seed))
	v := 2.5
	x1 := (0.12+0.04*rng.Float64())*env.Nx + v*float64(age)
	x2 := (0.84+0.04*rng.Float64())*env.Nx - v*float64(age)
	if x2-x1 > 4 {
		cross := func(x float64) Feature {
			return Feature{
				Lo: [3]float64{x - sheetThickness/2, 0, 0},
				Hi: [3]float64{x + sheetThickness/2, env.Ny, env.Nz},
			}
		}
		return []Feature{cross(x1), cross(x2)}
	}
	// Merged: one static thin front at the meeting point. It must stay
	// sheet-thin — a thicker consolidated slab would flip to
	// computation-dominated and leave the declared post-merge octant I.
	mid := (x1 + x2) / 2
	return []Feature{{
		Lo: [3]float64{mid - sheetThickness/2, 0, 0},
		Hi: [3]float64{mid + sheetThickness/2, env.Ny, env.Nz},
	}}
}

// background is faint static noise: a few small solid specks scattered
// over the domain, persisting unchanged across snapshots. Small specks
// have high surface-to-volume, so on its own the driver reads as static
// scattered comm-dominated refinement (octant II); its intended use is as
// an ingredient under other drivers.
type background struct {
	n int
}

// Background returns a static background-noise driver with n specks
// (clamped to [2, 8]).
func Background(n int) Driver {
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return background{n: n}
}

func (b background) Name() string { return fmt.Sprintf("background%d", b.n) }

func (b background) Signature() Signature {
	return Signature{HigherDynamics: false, CommDominated: true, Scattered: true}
}

func (b background) Features(age int, env Env, seed int64) []Feature {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Feature, 0, b.n)
	for i := 0; i < b.n; i++ {
		cx := float64(i+1)/float64(b.n+1)*env.Nx + (rng.Float64()-0.5)*3
		cy := (0.2 + 0.6*rng.Float64()) * env.Ny
		cz := (0.2 + 0.6*rng.Float64()) * env.Nz
		out = append(out, Feature{
			Lo: [3]float64{cx - 2.2, cy - 2.2, cz - 2.2},
			Hi: [3]float64{cx + 2.2, cy + 2.2, cz + 2.2},
		})
	}
	return out
}

// ForOctant returns the canonical driver engineered to occupy the given
// octant — the generator-space witness the reachability property tests
// use. Every octant I-VIII has one.
func ForOctant(o octant.Octant) Driver {
	switch o {
	case octant.I:
		return Sheet(Low)
	case octant.II:
		return SheetField(4, Low)
	case octant.III:
		return Block(Low)
	case octant.IV:
		return BlobField(3, Low)
	case octant.V:
		return Sheet(High)
	case octant.VI:
		return SheetField(4, High)
	case octant.VII:
		return Block(High)
	case octant.VIII:
		return BlobField(3, High)
	default:
		return Sheet(Low)
	}
}

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
