package partition

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/sfc"
)

// EqualBlock is the default partitioning scheme of §4.6: "an equal
// distribution of the workload on the processors", ignoring processor
// capacities. It is the baseline the system-sensitive partitioner is
// compared against in Table 5.
type EqualBlock struct {
	Curve       sfc.Curve
	Granularity int
}

// Name implements Partitioner.
func (EqualBlock) Name() string { return "EqualBlock" }

// Partition implements Partitioner: equal-share greedy split along the
// curve.
func (p EqualBlock) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	if err := checkArgs(h, nprocs); err != nil {
		return nil, err
	}
	g := p.Granularity
	if g == 0 {
		g = granularityFor(h, nprocs, 16, 2, 12)
	}
	units, err := prepare(h, wm, nprocs, func() []Unit { return blockUnits(h, wm, g) }, p.Curve)
	if err != nil {
		return nil, err
	}
	owner := make([]int, len(units))
	greedyPrefix(weightsOf(units), nprocs, owner)
	return assemble(units, owner, nprocs), nil
}

// Heterogeneous is the system-sensitive partitioner of §4.6 (Fig. 4): the
// workload is distributed proportionally to per-processor relative
// capacities computed from resource monitoring.
type Heterogeneous struct {
	Curve       sfc.Curve
	Granularity int
}

// Name implements Partitioner.
func (Heterogeneous) Name() string { return "Heterogeneous" }

// Partition implements Partitioner; without capacity information every
// processor gets an equal share.
func (p Heterogeneous) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	caps := make([]float64, nprocs)
	for i := range caps {
		caps[i] = 1
	}
	return p.PartitionWeighted(h, wm, caps)
}

// PartitionWeighted implements CapacityPartitioner: chunk weights follow the
// relative capacities.
func (p Heterogeneous) PartitionWeighted(h *samr.Hierarchy, wm samr.WorkModel, capacities []float64) (*Assignment, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("partition: no capacities")
	}
	for i, c := range capacities {
		if c < 0 {
			return nil, fmt.Errorf("partition: negative capacity %g for processor %d", c, i)
		}
	}
	if err := checkArgs(h, len(capacities)); err != nil {
		return nil, err
	}
	g := p.Granularity
	if g == 0 {
		g = granularityFor(h, len(capacities), 16, 2, 12)
	}
	units, err := prepare(h, wm, len(capacities), func() []Unit { return blockUnits(h, wm, g) }, p.Curve)
	if err != nil {
		return nil, err
	}
	return assemble(units, weightedSequence(weightsOf(units), capacities), len(capacities)), nil
}

var _ CapacityPartitioner = Heterogeneous{}
