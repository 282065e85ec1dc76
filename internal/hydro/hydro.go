// Package hydro implements a small three-dimensional compressible-flow
// solver: the ideal-gas Euler equations discretized with a first-order
// finite-volume scheme and Rusanov (local Lax-Friedrichs) fluxes.
//
// The paper's driving applications are compressible hydrodynamics codes
// (RM3D and the astrophysics simulations of §2). The synthetic phenomenon
// model in internal/rm3d reproduces their *adaptation trace*; this package
// goes one step further and provides an actual solver, so that Pragma's
// error flagging, regridding and partitioning can also be driven by real
// flow features (see examples/hydroamr). It is deliberately first-order
// and single-grid — a substrate, not a production CFD code — and is
// validated against the Sod shock-tube problem.
package hydro

import (
	"fmt"
	"math"
)

// State holds the conserved variables of one cell: density, momentum
// density, and total energy density.
type State struct {
	Rho, Mx, My, Mz, E float64
}

// Grid is a uniform Cartesian grid with one ghost layer per side and
// outflow (zero-gradient) boundaries.
type Grid struct {
	Nx, Ny, Nz int
	// Gamma is the ideal-gas adiabatic index.
	Gamma float64
	// Dx is the (cubic) cell size.
	Dx float64

	sx, sxy int // strides including ghosts
	cells   []State
	scratch []State
}

// NewGrid allocates an nx x ny x nz grid with cell size dx.
func NewGrid(nx, ny, nz int, dx, gamma float64) (*Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("hydro: bad extents %dx%dx%d", nx, ny, nz)
	}
	if dx <= 0 || gamma <= 1 {
		return nil, fmt.Errorf("hydro: bad dx %g or gamma %g", dx, gamma)
	}
	g := &Grid{Nx: nx, Ny: ny, Nz: nz, Gamma: gamma, Dx: dx}
	g.sx = nx + 2
	g.sxy = (nx + 2) * (ny + 2)
	n := (nx + 2) * (ny + 2) * (nz + 2)
	g.cells = make([]State, n)
	g.scratch = make([]State, n)
	return g, nil
}

// idx addresses the cell at interior coordinates (i,j,k); the ghost layer
// is reachable with -1 and N.
func (g *Grid) idx(i, j, k int) int {
	return (k+1)*g.sxy + (j+1)*g.sx + (i + 1)
}

// At returns the state of interior cell (i,j,k).
func (g *Grid) At(i, j, k int) State { return g.cells[g.idx(i, j, k)] }

// Set stores the state of interior cell (i,j,k).
func (g *Grid) Set(i, j, k int, s State) { g.cells[g.idx(i, j, k)] = s }

// Fill initializes every interior cell from the callback.
func (g *Grid) Fill(f func(i, j, k int) State) {
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				g.Set(i, j, k, f(i, j, k))
			}
		}
	}
}

// Prim converts a conserved state to primitives (density, velocity,
// pressure).
func (g *Grid) Prim(s State) (rho, u, v, w, p float64) {
	rho = s.Rho
	if rho <= 0 {
		return 0, 0, 0, 0, 0
	}
	u, v, w = s.Mx/rho, s.My/rho, s.Mz/rho
	kin := 0.5 * rho * (u*u + v*v + w*w)
	p = (g.Gamma - 1) * (s.E - kin)
	return rho, u, v, w, p
}

// Conserved builds a conserved state from primitives.
func Conserved(gamma, rho, u, v, w, p float64) State {
	return State{
		Rho: rho,
		Mx:  rho * u,
		My:  rho * v,
		Mz:  rho * w,
		E:   p/(gamma-1) + 0.5*rho*(u*u+v*v+w*w),
	}
}

// soundSpeed returns the sound speed of a state.
func (g *Grid) soundSpeed(s State) float64 {
	rho, _, _, _, p := g.Prim(s)
	if rho <= 0 || p <= 0 {
		return 0
	}
	return math.Sqrt(g.Gamma * p / rho)
}

// MaxWaveSpeed returns the largest |velocity| + sound speed over the grid.
func (g *Grid) MaxWaveSpeed() float64 {
	var max float64
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				s := g.At(i, j, k)
				rho, u, v, w, _ := g.Prim(s)
				if rho <= 0 {
					continue
				}
				speed := math.Sqrt(u*u+v*v+w*w) + g.soundSpeed(s)
				if speed > max {
					max = speed
				}
			}
		}
	}
	return max
}

// StableDt returns a CFL-stable time step.
func (g *Grid) StableDt(cfl float64) float64 {
	smax := g.MaxWaveSpeed()
	if smax <= 0 {
		return g.Dx * cfl
	}
	return cfl * g.Dx / smax
}

// applyBC fills the ghost layer with zero-gradient (outflow) copies.
func (g *Grid) applyBC() {
	for k := -1; k <= g.Nz; k++ {
		for j := -1; j <= g.Ny; j++ {
			for i := -1; i <= g.Nx; i++ {
				if i >= 0 && i < g.Nx && j >= 0 && j < g.Ny && k >= 0 && k < g.Nz {
					continue
				}
				ci := clamp(i, 0, g.Nx-1)
				cj := clamp(j, 0, g.Ny-1)
				ck := clamp(k, 0, g.Nz-1)
				g.cells[g.idx(i, j, k)] = g.cells[g.idx(ci, cj, ck)]
			}
		}
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// flux returns the Euler flux of state s along direction d (0=x, 1=y, 2=z).
func (g *Grid) flux(s State, d int) State {
	rho, u, v, w, p := g.Prim(s)
	var vel float64
	switch d {
	case 0:
		vel = u
	case 1:
		vel = v
	default:
		vel = w
	}
	f := State{
		Rho: rho * vel,
		Mx:  s.Mx * vel,
		My:  s.My * vel,
		Mz:  s.Mz * vel,
		E:   (s.E + p) * vel,
	}
	switch d {
	case 0:
		f.Mx += p
	case 1:
		f.My += p
	default:
		f.Mz += p
	}
	return f
}

// rusanov returns the Rusanov interface flux between states l and r along
// direction d.
func (g *Grid) rusanov(l, r State, d int) State {
	fl := g.flux(l, d)
	fr := g.flux(r, d)
	sl := g.waveSpeed(l, d)
	sr := g.waveSpeed(r, d)
	smax := math.Max(sl, sr)
	return State{
		Rho: 0.5*(fl.Rho+fr.Rho) - 0.5*smax*(r.Rho-l.Rho),
		Mx:  0.5*(fl.Mx+fr.Mx) - 0.5*smax*(r.Mx-l.Mx),
		My:  0.5*(fl.My+fr.My) - 0.5*smax*(r.My-l.My),
		Mz:  0.5*(fl.Mz+fr.Mz) - 0.5*smax*(r.Mz-l.Mz),
		E:   0.5*(fl.E+fr.E) - 0.5*smax*(r.E-l.E),
	}
}

func (g *Grid) waveSpeed(s State, d int) float64 {
	rho, u, v, w, _ := g.Prim(s)
	if rho <= 0 {
		return 0
	}
	var vel float64
	switch d {
	case 0:
		vel = u
	case 1:
		vel = v
	default:
		vel = w
	}
	return math.Abs(vel) + g.soundSpeed(s)
}

// Step advances the solution by dt with an unsplit finite-volume update,
// U += -dt/dx * sum_d (F_{d,+} - F_{d,-}), first order in space.
func (g *Grid) Step(dt float64) {
	g.applyBC()
	lambda := dt / g.Dx
	off := [3][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				c := g.cells[g.idx(i, j, k)]
				acc := c
				for d := 0; d < 3; d++ {
					o := off[d]
					lo := g.cells[g.idx(i-o[0], j-o[1], k-o[2])]
					hi := g.cells[g.idx(i+o[0], j+o[1], k+o[2])]
					fm := g.rusanov(lo, c, d)
					fp := g.rusanov(c, hi, d)
					acc.Rho -= lambda * (fp.Rho - fm.Rho)
					acc.Mx -= lambda * (fp.Mx - fm.Mx)
					acc.My -= lambda * (fp.My - fm.My)
					acc.Mz -= lambda * (fp.Mz - fm.Mz)
					acc.E -= lambda * (fp.E - fm.E)
				}
				g.scratch[g.idx(i, j, k)] = acc
			}
		}
	}
	g.cells, g.scratch = g.scratch, g.cells
}

// SodX initializes the classic Sod shock tube along x: (rho=1, p=1) on the
// left half, (rho=0.125, p=0.1) on the right, at rest.
func SodX(g *Grid) {
	mid := g.Nx / 2
	g.Fill(func(i, j, k int) State {
		if i < mid {
			return Conserved(g.Gamma, 1, 0, 0, 0, 1)
		}
		return Conserved(g.Gamma, 0.125, 0, 0, 0, 0.1)
	})
}
