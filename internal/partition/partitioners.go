package partition

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/sfc"
)

// The suite of patch- and domain-based partitioners named in §4.4 of the
// paper. All share the inverse space-filling curve (ISP) pipeline —
// decompose the hierarchy into units, order the units along a curve, split
// the ordered sequence — and differ in granularity and splitting strategy,
// which is exactly what gives each one its PAC trade-off:
//
//	SFC        fixed medium granularity, greedy split — the baseline.
//	G-MISP     variable granularity (heavy regions subdivide), greedy split.
//	G-MISP+SP  variable granularity + optimal sequence partitioning: best
//	           load balance among the cheap partitioners.
//	pBD-ISP    coarse granularity + p-way binary dissection: fastest, lowest
//	           communication and migration, worst balance.
//	SP-ISP     fine granularity + optimal sequence partitioning: best
//	           balance, highest overheads.
//	ISP        fine granularity, greedy split.

// SFC is the plain space-filling-curve partitioner.
type SFC struct{}

// Name implements Partitioner.
func (SFC) Name() string { return "SFC" }

// Partition implements Partitioner.
func (p SFC) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner.
func (p SFC) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, plan)
}

func (SFC) pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec {
	return pipelineSpec{
		decomp: decompSpec{kind: decompBlock, side: granularityFor(h, nprocs, 10, 2, 20)},
		split:  splitGreedy,
		cost:   1,
	}
}

// GMISP is the variable-grain geometric multilevel inverse SFC partitioner.
type GMISP struct{}

// gmispDecomp is the variable-grain decomposition of G-MISP and G-MISP+SP:
// units subdivide until about a quarter of a processor's ideal share, and
// never below a side of 2.
var gmispDecomp = decompSpec{kind: decompVarGrain, factor: 4, minSide: 2}

// Name implements Partitioner.
func (GMISP) Name() string { return "G-MISP" }

// Partition implements Partitioner.
func (p GMISP) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner.
func (p GMISP) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, plan)
}

func (GMISP) pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec {
	return pipelineSpec{decomp: gmispDecomp, split: splitGreedy, cost: 1}
}

// GMISPSP is G-MISP with optimal sequence partitioning (G-MISP+SP).
type GMISPSP struct{}

// Name implements Partitioner.
func (GMISPSP) Name() string { return "G-MISP+SP" }

// Partition implements Partitioner.
func (p GMISPSP) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner.
func (p GMISPSP) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, plan)
}

func (GMISPSP) pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec {
	return pipelineSpec{decomp: gmispDecomp, split: splitOptimal, cost: seqSplitCost}
}

// PBDISP is the p-way binary dissection inverse SFC partitioner.
type PBDISP struct{}

// Name implements Partitioner.
func (PBDISP) Name() string { return "pBD-ISP" }

// Partition implements Partitioner.
func (p PBDISP) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner.
func (p PBDISP) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, plan)
}

func (PBDISP) pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec {
	return pipelineSpec{
		decomp: decompSpec{kind: decompBlock, side: granularityFor(h, nprocs, 3, 4, 24)},
		split:  splitDissection,
		cost:   log2(nprocs),
	}
}

// SPISP is the pure sequence partitioner with inverse SFC at fine
// granularity.
type SPISP struct {
	// Curve overrides the default Hilbert ordering (nil = Hilbert); the
	// curve ablation sets it.
	Curve sfc.Curve
}

// Name implements Partitioner.
func (SPISP) Name() string { return "SP-ISP" }

// Partition implements Partitioner.
func (p SPISP) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner.
func (p SPISP) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, plan)
}

func (p SPISP) pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec {
	return pipelineSpec{
		decomp: decompSpec{kind: decompBlock, side: granularityFor(h, nprocs, 48, 2, 8)},
		curve:  p.Curve,
		split:  splitOptimal,
		cost:   seqSplitCost,
	}
}

// ISP is the plain fine-granularity inverse SFC partitioner.
type ISP struct{}

// Name implements Partitioner.
func (ISP) Name() string { return "ISP" }

// Partition implements Partitioner.
func (p ISP) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner.
func (p ISP) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, plan)
}

func (ISP) pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec {
	return pipelineSpec{
		decomp: decompSpec{kind: decompBlock, side: granularityFor(h, nprocs, 48, 2, 8)},
		split:  splitGreedy,
		cost:   1,
	}
}

// ByName returns the partitioner registered under the paper's name, or an
// error listing the known names. This is the partitioner database the
// adaptive meta-partitioner selects from; a lookup allocates nothing.
func ByName(name string) (Partitioner, error) {
	if p, ok := byName[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("partition: unknown partitioner %q (known: SFC, G-MISP, G-MISP+SP, pBD-ISP, SP-ISP, ISP, EqualBlock, Heterogeneous, PatchGreedy)", name)
}

// byName holds the database's entries already boxed as Partitioners:
// partitioners are stateless values, so every caller can share one.
var byName = map[string]Partitioner{
	"SFC":           SFC{},
	"G-MISP":        GMISP{},
	"G-MISP+SP":     GMISPSP{},
	"pBD-ISP":       PBDISP{},
	"SP-ISP":        SPISP{},
	"ISP":           ISP{},
	"EqualBlock":    EqualBlock{},
	"Heterogeneous": Heterogeneous{},
	"PatchGreedy":   PatchGreedy{},
}

// All returns the ISP partitioner suite in the order the paper lists it.
func All() []Partitioner {
	return []Partitioner{SFC{}, GMISP{}, GMISPSP{}, PBDISP{}, SPISP{}, ISP{}}
}

// seqSplitCost is the relative cost of optimal sequence partitioning: the
// bottleneck binary search performs ~60 greedy verification sweeps.
const seqSplitCost = 60

// log2 returns log base 2 of n, at least 1, for dissection split cost.
func log2(n int) float64 {
	c := 1.0
	for n > 2 {
		n /= 2
		c++
	}
	return c
}

func checkArgs(h *samr.Hierarchy, nprocs int) error {
	if h == nil || h.Depth() == 0 {
		return fmt.Errorf("partition: nil or empty hierarchy")
	}
	if nprocs < 1 {
		return fmt.Errorf("partition: nprocs %d < 1", nprocs)
	}
	return nil
}

func assemble(units []Unit, owner []int, nprocs int) *Assignment {
	return &Assignment{NProcs: nprocs, Units: units, Owner: owner, SplitCost: 1}
}
