package partition

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/samr"
)

var (
	// EqualBlock is the default partitioning scheme of §4.6: "an equal
	// distribution of the workload on the processors", ignoring processor
	// capacities — an equal-share greedy split along the curve. It is the
	// baseline the system-sensitive partitioner is compared against in
	// Table 5.
	EqualBlock = newPipeline("EqualBlock", func(h *samr.Hierarchy, nprocs int) pipelineSpec {
		return pipelineSpec{decomp: blockDecomp(h, nprocs, 16, 2, 12), split: splitGreedy, cost: 1}
	})

	// Heterogeneous is the system-sensitive partitioner of §4.6 (Fig. 4):
	// the workload is distributed proportionally to per-processor relative
	// capacities computed from resource monitoring (PartitionWeighted). It
	// is EqualBlock's decomposition and order with a capacity-weighted
	// split; without capacity information it splits by capacities of all
	// ones: weightedSequence's fixed equal targets, not EqualBlock's
	// adaptive ones.
	Heterogeneous = newPipeline("Heterogeneous", func(h *samr.Hierarchy, nprocs int) pipelineSpec {
		caps := make([]float64, nprocs)
		for i := range caps {
			caps[i] = 1
		}
		return weightedSpec(h, caps)
	})
)

// PartitionWeighted partitions h with Heterogeneous, proportionally to the
// given relative capacities, one per processor; they need not be
// normalized. It works in plan's scratch as PartitionIncremental does (nil
// = a throwaway plan).
func PartitionWeighted(h *samr.Hierarchy, wm samr.WorkModel, capacities []float64, plan *PartitionPlan) (*Assignment, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("partition: no capacities")
	}
	for i, c := range capacities {
		if c < 0 {
			return nil, fmt.Errorf("partition: negative capacity %g for processor %d", c, i)
		}
	}
	return weightedPipeline(capacities).PartitionIncremental(h, wm, len(capacities), plan)
}

// weightedPipeline is Heterogeneous at the given capacities.
func weightedPipeline(caps []float64) *Pipeline {
	return &Pipeline{Heterogeneous.name, func(h *samr.Hierarchy, _ int) pipelineSpec {
		return weightedSpec(h, caps)
	}, Heterogeneous.seconds, Heterogeneous.reused}
}

// weightedSpec is Heterogeneous's pipeline at the given capacities.
func weightedSpec(h *samr.Hierarchy, caps []float64) pipelineSpec {
	return pipelineSpec{decomp: blockDecomp(h, len(caps), 16, 2, 12), caps: caps, cost: 1}
}
