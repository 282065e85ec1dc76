package partition

// Retained from-scratch sequential reference for the ISP partitioner
// pipeline, mirroring commref.go for the PAC kernel: the production
// pipeline in plan.go must produce bit-identical assignments to this
// implementation with or without a PartitionPlan and after any sequence of
// earlier calls through the plan. The differential and fuzz suites in
// plan_test.go enforce the equivalence; keep this file boring: the
// library's stable sort, the work model's own BoxWork, fresh slices.

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/samr"
)

// Compile-time proof that the whole ISP suite partitions through a plan.
var (
	_ IncrementalPartitioner = SFC{}
	_ IncrementalPartitioner = GMISP{}
	_ IncrementalPartitioner = GMISPSP{}
	_ IncrementalPartitioner = PBDISP{}
	_ IncrementalPartitioner = SPISP{}
	_ IncrementalPartitioner = ISP{}
)

// unprepared hides a work model's dynamic type from samr.BoxWeigher, so the
// reference weighs every unit with the model's own BoxWork — for a
// FrontWorkModel, re-refining and intersecting every front per unit —
// rather than with the prepared form production uses.
type unprepared struct{ samr.WorkModel }

// ReferencePartition partitions h with the original sequential pipeline:
// sequential decomposition (blockUnits / variableGrainUnits) weighed by the
// unprepared work model, stable sort-based curve ordering (orderUnits),
// then the partitioner's splitter. It consumes the same pipelineSpec as the
// production path, so the two can only differ in mechanism, never in
// parameters. Partitioners outside the shared pipeline fall through to
// their own Partition.
func ReferencePartition(p Partitioner, h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	pp, ok := p.(pipelinePartitioner)
	if !ok {
		return p.Partition(h, wm, nprocs)
	}
	if err := checkArgs(h, nprocs); err != nil {
		return nil, err
	}
	spec := pp.pipeline(h, wm, nprocs)
	var units []Unit
	switch spec.decomp.kind {
	case decompVarGrain:
		units = variableGrainUnits(h, unprepared{wm}, spec.decomp.threshold, spec.decomp.minSide)
	default:
		units = blockUnits(h, unprepared{wm}, spec.decomp.side)
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: hierarchy produced no units")
	}
	curve := spec.curve
	if curve == nil {
		curve = curveFor(h)
	}
	orderUnits(units, h, curve)
	return assembleWith(units, spec.split(weightsOf(units), nprocs), nprocs, spec.cost), nil
}
