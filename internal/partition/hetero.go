package partition

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/samr"
)

// EqualBlock is the default partitioning scheme of §4.6: "an equal
// distribution of the workload on the processors", ignoring processor
// capacities. It is the baseline the system-sensitive partitioner is
// compared against in Table 5.
type EqualBlock struct{}

// Name implements Partitioner.
func (EqualBlock) Name() string { return "EqualBlock" }

// Partition implements Partitioner: equal-share greedy split along the
// curve.
func (p EqualBlock) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner.
func (p EqualBlock) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, plan)
}

func (EqualBlock) pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec {
	return pipelineSpec{
		decomp: decompSpec{kind: decompBlock, side: granularityFor(h, nprocs, 16, 2, 12)},
		split:  splitGreedy,
		cost:   1,
	}
}

// Heterogeneous is the system-sensitive partitioner of §4.6 (Fig. 4): the
// workload is distributed proportionally to per-processor relative
// capacities computed from resource monitoring. It is EqualBlock's
// decomposition and order with a capacity-weighted split.
type Heterogeneous struct{}

// Name implements Partitioner.
func (Heterogeneous) Name() string { return "Heterogeneous" }

// Partition implements Partitioner; without capacity information every
// processor gets an equal share.
func (p Heterogeneous) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner.
func (p Heterogeneous) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	return partitionPipeline(p.Name(), p.pipeline, h, wm, nprocs, plan)
}

// pipeline splits by capacities of all ones: weightedSequence's fixed
// equal targets, not EqualBlock's adaptive ones.
func (Heterogeneous) pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec {
	caps := make([]float64, nprocs)
	for i := range caps {
		caps[i] = 1
	}
	return weightedSpec(h, caps)
}

// PartitionWeighted partitions h proportionally to the given relative
// capacities, one per processor; they need not be normalized. It works in
// plan's scratch as PartitionIncremental does (nil = a throwaway plan).
func (p Heterogeneous) PartitionWeighted(h *samr.Hierarchy, wm samr.WorkModel, capacities []float64, plan *PartitionPlan) (*Assignment, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("partition: no capacities")
	}
	for i, c := range capacities {
		if c < 0 {
			return nil, fmt.Errorf("partition: negative capacity %g for processor %d", c, i)
		}
	}
	return partitionPipeline(p.Name(), func(h *samr.Hierarchy, _ samr.WorkModel, _ int) pipelineSpec {
		return weightedSpec(h, capacities)
	}, h, wm, len(capacities), plan)
}

// weightedSpec is Heterogeneous's pipeline at the given capacities.
func weightedSpec(h *samr.Hierarchy, caps []float64) pipelineSpec {
	return pipelineSpec{
		decomp: decompSpec{kind: decompBlock, side: granularityFor(h, len(caps), 16, 2, 12)},
		caps:   caps,
		cost:   1,
	}
}
