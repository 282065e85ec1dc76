// Package octant implements Pragma's application characterization module:
// the octant approach of §4.2 (Fig. 2). The state of an SAMR application is
// classified along three axes — adaptation pattern (localized vs
// scattered), activity dynamics (lower vs higher), and whether the runtime
// is dominated by computation or communication — into octants I–VIII. The
// octant then drives partitioner selection through the policy base
// (Table 2) and, over a whole run, yields the application's octant
// trajectory (Table 3).
//
// The paper's Figure 2 does not define the octant numbering precisely
// enough to recover from the scan; the numbering used here is the
// reconstruction documented in DESIGN.md, chosen to be consistent with
// Table 2's partitioner associations.
package octant

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/samr"
)

// Octant identifies one of the eight application-state octants.
type Octant int

// The eight octants. Octants I–IV have lower activity dynamics, V–VIII
// higher; within each group, I/II (and V/VI) are communication-dominated,
// III/IV (and VII/VIII) computation-dominated; odd octants are localized,
// even octants scattered.
const (
	I Octant = 1 + iota
	II
	III
	IV
	V
	VI
	VII
	VIII
)

// String returns the Roman numeral of the octant.
func (o Octant) String() string {
	switch o {
	case I:
		return "I"
	case II:
		return "II"
	case III:
		return "III"
	case IV:
		return "IV"
	case V:
		return "V"
	case VI:
		return "VI"
	case VII:
		return "VII"
	case VIII:
		return "VIII"
	default:
		return fmt.Sprintf("Octant(%d)", int(o))
	}
}

// Valid reports whether o is one of the eight octants.
func (o Octant) Valid() bool { return o >= I && o <= VIII }

// HigherDynamics reports whether the octant lies in the higher-activity
// half of the state space.
func (o Octant) HigherDynamics() bool { return o >= V }

// CommDominated reports whether the octant is communication-dominated.
func (o Octant) CommDominated() bool {
	switch o {
	case I, II, V, VI:
		return true
	default:
		return false
	}
}

// Scattered reports whether the octant has a scattered adaptation pattern.
func (o Octant) Scattered() bool {
	switch o {
	case II, IV, VI, VIII:
		return true
	default:
		return false
	}
}

// FromAxes builds the octant for the given axis values.
func FromAxes(higherDynamics, commDominated, scattered bool) Octant {
	o := I
	if !commDominated {
		o += 2
	}
	if scattered {
		o++
	}
	if higherDynamics {
		o += 4
	}
	return o
}

// State is the measured application state that classification operates on.
type State struct {
	// Dynamics is the windowed refined-region change fraction between
	// regrids (0 = static, 1 = fully relocating).
	Dynamics float64
	// CommRatio is the refined region's surface-to-volume ratio, the
	// communication/computation dominance indicator.
	CommRatio float64
	// Dispersion measures how scattered the refinement is (0 = one solid
	// block, toward 1 = spread across the domain).
	Dispersion float64
}

// Thresholds split each State axis into its two half-spaces.
type Thresholds struct {
	Dynamics   float64
	CommRatio  float64
	Dispersion float64
}

// DefaultThresholds are calibrated against the RM3D adaptation trace so
// that the trace's octant trajectory matches the paper's Table 3 (see
// EXPERIMENTS.md).
func DefaultThresholds() Thresholds {
	return Thresholds{Dynamics: 0.15, CommRatio: 0.48, Dispersion: 0.30}
}

// Classify maps a state to its octant.
func Classify(s State, th Thresholds) Octant {
	return FromAxes(
		s.Dynamics >= th.Dynamics,
		s.CommRatio >= th.CommRatio,
		s.Dispersion >= th.Dispersion,
	)
}

// Characterization is the octant classification of one trace snapshot.
type Characterization struct {
	Index  int
	State  State
	Octant Octant
}

// StateAt measures the application state at snapshot idx of a trace. The
// metrics are taken on hierarchy level 1 (the first refined level);
// dynamics averages the change fraction over the `window` preceding regrid
// intervals (window < 1 is treated as 1).
func StateAt(tr *samr.Trace, idx, window int) (State, error) {
	if idx < 0 || idx >= len(tr.Snapshots) {
		return State{}, fmt.Errorf("octant: snapshot %d outside trace of %d", idx, len(tr.Snapshots))
	}
	return stateAt(tr, idx, window, func(k int) float64 { return intervalChange(tr, k) }), nil
}

// intervalChange is the level-1 change fraction over regrid interval k, the
// one that ends at snapshot k >= 1.
func intervalChange(tr *samr.Trace, k int) float64 {
	return samr.ChangeFraction(tr.Snapshots[k-1].H, tr.Snapshots[k].H, 1)
}

// stateAt is StateAt for a valid idx with the interval change fractions
// supplied by the caller. The window is summed newest interval first;
// StateAt and CharacterizeTrace share this loop so they produce the same
// floats.
func stateAt(tr *samr.Trace, idx, window int, change func(k int) float64) State {
	if window < 1 {
		window = 1
	}
	h := tr.Snapshots[idx].H
	s := State{
		CommRatio:  h.SurfaceToVolume(1),
		Dispersion: h.Dispersion(1),
	}
	var sum float64
	n := 0
	for k := idx; k > idx-window && k >= 1; k-- {
		sum += change(k)
		n++
	}
	if n > 0 {
		s.Dynamics = sum / float64(n)
	}
	return s
}

// CharacterizeTrace classifies every snapshot of a trace — the automated
// version of the paper's manual application characterization step. Each
// snapshot pair is diffed once, however wide the window.
func CharacterizeTrace(tr *samr.Trace, th Thresholds, window int) ([]Characterization, error) {
	changes := make([]float64, len(tr.Snapshots))
	for k := 1; k < len(changes); k++ {
		changes[k] = intervalChange(tr, k)
	}
	out := make([]Characterization, 0, len(tr.Snapshots))
	for idx := range tr.Snapshots {
		s := stateAt(tr, idx, window, func(k int) float64 { return changes[k] })
		out = append(out, Characterization{Index: idx, State: s, Octant: Classify(s, th)})
	}
	return out, nil
}
