// Package astro provides synthetic models of the other two astrophysical
// driver applications of the paper's §2 — RM3D's siblings:
//
//   - Galaxy formation: "objects of progressively larger mass merge and
//     collapse to form new systems"; the model runs a deterministic halo
//     merger process, so refinement starts scattered over many small halos
//     and consolidates into few massive ones.
//   - Supernova: "highly asymmetrical and aspherical explosions and debris
//     fields"; the model expands an aspherical blast shell and deposits
//     debris clumps behind it.
//
// Like internal/rm3d, these are adaptation-trace generators: they drive
// real error flagging, Berger–Rigoutsos clustering and regridding, and the
// resulting traces feed the same characterization/partitioning pipeline.
// Unlike rm3d they are not calibrated against a paper table; they exist to
// exercise Pragma on applications with different octant trajectories.
package astro

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/pragma-grid/pragma/internal/lazyrand"
	"github.com/pragma-grid/pragma/internal/samr"
)

// Config parameterizes an astro trace generation run.
type Config struct {
	// BaseDims is the level-0 grid size (cubic domains work best).
	BaseDims [3]int
	// MaxDepth is the number of hierarchy levels (2 or 3).
	MaxDepth int
	// Ratio is the refinement factor.
	Ratio int
	// RegridEvery is the number of coarse steps between snapshots.
	RegridEvery int
	// CoarseSteps is the number of coarse steps to run.
	CoarseSteps int
	// Seed drives the deterministic randomness.
	Seed int64
	// Cluster configures the Berger–Rigoutsos clusterer.
	Cluster samr.ClusterOptions
}

// DefaultConfig returns a medium-size configuration (41 snapshots on a
// 64^3 base grid).
func DefaultConfig() Config {
	return Config{
		BaseDims:    [3]int{64, 64, 64},
		MaxDepth:    3,
		Ratio:       2,
		RegridEvery: 4,
		CoarseSteps: 160,
		Seed:        1987,
		Cluster:     samr.DefaultClusterOptions(),
	}
}

// SmallConfig returns a reduced configuration for fast tests.
func SmallConfig() Config {
	c := DefaultConfig()
	c.BaseDims = [3]int{48, 48, 48}
	c.CoarseSteps = 80 // 21 snapshots
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.BaseDims[d] < 16 {
			return fmt.Errorf("astro: base dimension %d = %d too small (min 16)", d, c.BaseDims[d])
		}
	}
	if c.MaxDepth < 2 || c.MaxDepth > samr.MaxRegridDepth {
		return fmt.Errorf("astro: max depth %d out of range [2,%d]", c.MaxDepth, samr.MaxRegridDepth)
	}
	if c.Ratio < 2 {
		return fmt.Errorf("astro: ratio %d < 2", c.Ratio)
	}
	if c.RegridEvery < 1 || c.CoarseSteps < c.RegridEvery {
		return fmt.Errorf("astro: bad stepping %d/%d", c.RegridEvery, c.CoarseSteps)
	}
	return nil
}

// Snapshots returns the number of trace snapshots produced.
func (c Config) Snapshots() int { return c.CoarseSteps/c.RegridEvery + 1 }

// Phenomenon supplies the refinement-worthy regions at a snapshot index:
// Regions returns level-1-worthy regions, Cores the subset deserving a
// second refinement level. All boxes are in level-0 coordinates.
type Phenomenon interface {
	// Name labels the application ("galaxy", "supernova").
	Name() string
	// Regions returns the refinement regions at snapshot idx.
	Regions(idx int) []samr.Box
	// Cores returns the deeper-refinement regions at snapshot idx.
	Cores(idx int) []samr.Box
}

// GenerateTrace runs a phenomenon through the regrid loop.
func GenerateTrace(cfg Config, ph Phenomenon) (*samr.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	domain := samr.MakeBox(cfg.BaseDims[0], cfg.BaseDims[1], cfg.BaseDims[2])
	return samr.GenerateTrace("astro", ph.Name(), cfg.Snapshots(), cfg.RegridEvery, func(idx int) (*samr.Hierarchy, error) {
		flags := samr.NewFlags(domain)
		for _, b := range ph.Regions(idx) {
			flags.SetBox(b)
		}
		return samr.Regrid(flags, cfg.Ratio, cfg.MaxDepth, cfg.Cluster, func(level1 []samr.Box) []samr.Box {
			// Cores are clipped to the level-1 boxes: only covered cells
			// are flagged.
			var fine []samr.Box
			for _, c := range ph.Cores(idx) {
				for _, parent := range level1 {
					if piece, ok := c.Refine(cfg.Ratio).Intersect(parent); ok {
						fine = append(fine, piece)
					}
				}
			}
			return fine
		})
	})
}

// ---------------------------------------------------------------------------
// Galaxy formation: hierarchical halo merging.

// halo is one collapsing object.
type halo struct {
	pos  [3]float64
	mass float64
}

// Galaxy models hierarchical structure formation: halos drift toward their
// nearest more-massive neighbor and merge on contact; refinement follows
// the halos, with radius growing as mass^(1/3).
type Galaxy struct {
	cfg Config
	// drift is the fraction of the separation closed per snapshot.
	drift float64

	// mu guards history: history[idx] is the halo set at snapshot idx,
	// extended one merger step at a time and never changed afterwards.
	mu      sync.Mutex
	history [][]halo
	// steps counts merger steps run, one per snapshot past the first.
	steps int
}

// NewGalaxy seeds nHalos halos deterministically.
func NewGalaxy(cfg Config, nHalos int) *Galaxy {
	if nHalos < 2 {
		nHalos = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	initial := make([]halo, 0, nHalos)
	for i := 0; i < nHalos; i++ {
		initial = append(initial, halo{
			pos: [3]float64{
				(0.15 + 0.7*rng.Float64()) * float64(cfg.BaseDims[0]),
				(0.15 + 0.7*rng.Float64()) * float64(cfg.BaseDims[1]),
				(0.15 + 0.7*rng.Float64()) * float64(cfg.BaseDims[2]),
			},
			mass: 0.5 + rng.Float64(),
		})
	}
	return &Galaxy{cfg: cfg, drift: 0.08, history: [][]halo{initial}}
}

// Name implements Phenomenon.
func (*Galaxy) Name() string { return "galaxy" }

// state returns the halos at snapshot idx, running the merger process
// only past the snapshots already computed. The result is shared; callers
// only read it.
func (g *Galaxy) state(idx int) []halo {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.history) <= idx {
		halos := g.history[len(g.history)-1]
		// Each halo drifts toward the nearest heavier halo.
		next := append([]halo(nil), halos...)
		for i := range halos {
			j := g.nearestHeavier(halos, i)
			if j < 0 {
				continue
			}
			for d := 0; d < 3; d++ {
				next[i].pos[d] += g.drift * (halos[j].pos[d] - halos[i].pos[d])
			}
		}
		g.history = append(g.history, mergeContacts(next, g.radiusOf))
		g.steps++
	}
	return g.history[idx]
}

func (g *Galaxy) nearestHeavier(halos []halo, i int) int {
	best, bestD := -1, math.MaxFloat64
	for j := range halos {
		if j == i || halos[j].mass < halos[i].mass {
			continue
		}
		if j != i && halos[j].mass == halos[i].mass && j > i {
			continue // break mass ties by index so pairs converge
		}
		d := dist(halos[i].pos, halos[j].pos)
		if d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

func (g *Galaxy) radiusOf(m float64) float64 {
	base := float64(g.cfg.BaseDims[0])
	return 0.035 * base * math.Cbrt(m)
}

func mergeContacts(halos []halo, radius func(float64) float64) []halo {
	for {
		merged := false
		for i := 0; i < len(halos) && !merged; i++ {
			for j := i + 1; j < len(halos); j++ {
				if dist(halos[i].pos, halos[j].pos) < radius(halos[i].mass)+radius(halos[j].mass) {
					m := halos[i].mass + halos[j].mass
					var pos [3]float64
					for d := 0; d < 3; d++ {
						pos[d] = (halos[i].pos[d]*halos[i].mass + halos[j].pos[d]*halos[j].mass) / m
					}
					halos[i] = halo{pos: pos, mass: m}
					halos = append(halos[:j], halos[j+1:]...)
					merged = true
					break
				}
			}
		}
		if !merged {
			return halos
		}
	}
}

func dist(a, b [3]float64) float64 {
	var s float64
	for d := 0; d < 3; d++ {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return math.Sqrt(s)
}

// Regions implements Phenomenon: a box around each halo.
func (g *Galaxy) Regions(idx int) []samr.Box {
	halos := g.state(idx)
	out := make([]samr.Box, 0, len(halos))
	for _, h := range halos {
		out = append(out, boxAround(h.pos, g.radiusOf(h.mass)))
	}
	return out
}

// Cores implements Phenomenon: the inner half of each halo.
func (g *Galaxy) Cores(idx int) []samr.Box {
	halos := g.state(idx)
	out := make([]samr.Box, 0, len(halos))
	for _, h := range halos {
		out = append(out, boxAround(h.pos, g.radiusOf(h.mass)*0.5))
	}
	return out
}

func boxAround(pos [3]float64, r float64) samr.Box {
	var b samr.Box
	for d := 0; d < 3; d++ {
		b.Lo[d] = int(math.Floor(pos[d] - r))
		b.Hi[d] = int(math.Ceil(pos[d] + r))
		if b.Hi[d] <= b.Lo[d] {
			b.Hi[d] = b.Lo[d] + 1
		}
	}
	return b
}

// ---------------------------------------------------------------------------
// Supernova: aspherical blast shell plus debris clumps.

// Supernova models an aspherical explosion: a thin blast shell expands
// from the center with direction-dependent speed; debris clumps condense
// behind it over time.
type Supernova struct {
	cfg Config
	// asym holds per-octant shell speed multipliers (the asphericity).
	asym [8]float64
}

// NewSupernova builds the phenomenon with deterministic asymmetry.
func NewSupernova(cfg Config) *Supernova {
	rng := rand.New(rand.NewSource(cfg.Seed + 211))
	s := &Supernova{cfg: cfg}
	for i := range s.asym {
		s.asym[i] = 0.7 + 0.6*rng.Float64()
	}
	return s
}

// Name implements Phenomenon.
func (*Supernova) Name() string { return "supernova" }

// shellRadius returns the blast radius at snapshot idx in direction octant o.
func (s *Supernova) shellRadius(idx, o int) float64 {
	base := float64(s.cfg.BaseDims[0])
	r := 0.035 * base * float64(idx) * s.asym[o]
	max := 0.46 * base
	if r > max {
		return max
	}
	return r
}

// Regions implements Phenomenon: shell segments per direction octant plus
// debris clumps.
func (s *Supernova) Regions(idx int) []samr.Box {
	if idx == 0 {
		// The progenitor: a compact core.
		return []samr.Box{boxAround(s.center(), 0.05*float64(s.cfg.BaseDims[0]))}
	}
	var out []samr.Box
	c := s.center()
	thick := 0.04 * float64(s.cfg.BaseDims[0])
	for o := 0; o < 8; o++ {
		r := s.shellRadius(idx, o)
		if r < thick {
			continue
		}
		// Shell segment: the box spanning [r-thick, r] along the octant
		// diagonal, extended laterally.
		dir := [3]float64{1, 1, 1}
		if o&1 != 0 {
			dir[0] = -1
		}
		if o&2 != 0 {
			dir[1] = -1
		}
		if o&4 != 0 {
			dir[2] = -1
		}
		mid := [3]float64{}
		for d := 0; d < 3; d++ {
			mid[d] = c[d] + dir[d]*(r-thick/2)/math.Sqrt(3)
		}
		out = append(out, boxAround(mid, r*0.35+thick))
	}
	out = append(out, s.debris(idx)...)
	return out
}

// debris returns the clump set at snapshot idx: clumps appear behind the
// shell after a delay and persist, drifting outward slowly.
func (s *Supernova) debris(idx int) []samr.Box {
	if idx < 6 {
		return nil
	}
	n := (idx - 4) / 2
	if n > 10 {
		n = 10
	}
	rng := lazyrand.Get(s.cfg.Seed + 307) // stable clump identities
	defer lazyrand.Put(rng)
	base := float64(s.cfg.BaseDims[0])
	c := s.center()
	out := make([]samr.Box, 0, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * rng.Float64()
		phi := math.Acos(2*rng.Float64() - 1)
		birth := 6 + 2*i
		frac := 0.3 + 0.5*rng.Float64()
		r := 0.03 * base * float64(idx-birth+4) * frac
		if r > 0.4*base {
			r = 0.4 * base
		}
		pos := [3]float64{
			c[0] + r*math.Sin(phi)*math.Cos(theta),
			c[1] + r*math.Sin(phi)*math.Sin(theta),
			c[2] + r*math.Cos(phi),
		}
		out = append(out, boxAround(pos, 0.045*base))
	}
	return out
}

// Cores implements Phenomenon: debris clump centers (the shell itself gets
// a single refinement level).
func (s *Supernova) Cores(idx int) []samr.Box {
	clumps := s.debris(idx)
	out := make([]samr.Box, 0, len(clumps))
	for _, b := range clumps {
		out = append(out, b.Grow(-b.Dx(0)/4))
	}
	return out
}

func (s *Supernova) center() [3]float64 {
	return [3]float64{
		float64(s.cfg.BaseDims[0]) / 2,
		float64(s.cfg.BaseDims[1]) / 2,
		float64(s.cfg.BaseDims[2]) / 2,
	}
}
