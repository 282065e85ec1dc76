// Package perf implements Pragma's performance analysis module (§3.2):
// Performance Functions (PFs) that describe the behavior of a system
// component in terms of one of its attributes, fitted from measurements
// with a small neural network, as in the paper, and composed into an
// end-to-end PF that estimates whole-application performance — Eq. 1 and
// Eq. 2 of the paper.
package perf

import "math"

// PF is a performance function: it maps an attribute value (for example
// data size in bytes) to a performance measure (for example seconds of
// delay).
type PF interface {
	// Eval returns the performance estimate at attribute value x.
	Eval(x float64) float64
	// Name identifies the modeled component.
	Name() string
}

// Serial composes PFs for components traversed one after another: the
// end-to-end PF is the sum of the component PFs, exactly Eq. 2's
// PF(total) = PF(pc1) + PF(switch) + PF(pc2).
type Serial struct {
	Label string
	Parts []PF
}

// Eval implements PF.
func (s Serial) Eval(x float64) float64 {
	var sum float64
	for _, p := range s.Parts {
		sum += p.Eval(x)
	}
	return sum
}

// Name implements PF.
func (s Serial) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "serial"
}

// PercentError returns 100*|predicted-measured|/|measured|, the error
// measure of Table 1.
func PercentError(predicted, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return 100 * math.Abs(predicted-measured) / math.Abs(measured)
}
