package partition

// Test oracle: the from-scratch sequential reference for the partitioner
// pipeline, mirroring commref_test.go for the PAC kernel: the
// production pipeline in plan.go must produce bit-identical assignments to
// this implementation with or without a PartitionPlan and after any
// sequence of earlier calls through the plan. The differential and fuzz
// suites in plan_test.go enforce the equivalence; keep this file boring:
// the library's stable sort, the work model's own BoxWork, fresh slices.

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/sfc"
)

// unprepared hides a work model's dynamic type from samr.BoxWeigher, so the
// reference weighs every unit with the model's own BoxWork — for a
// FrontWorkModel, re-refining and intersecting every front per unit —
// rather than with the prepared form production uses.
type unprepared struct{ samr.WorkModel }

// ReferencePartition partitions h with the original sequential pipeline:
// sequential decomposition (blockUnits / variableGrainUnits) weighed by the
// unprepared work model, stable sort-based curve ordering (orderUnits),
// then the partitioner's splitter, or weightedSequence at the spec's
// capacities. It consumes the same pipelineSpec as the
// production path, so the two can only differ in mechanism, never in
// parameters. Partitioners outside the shared pipeline fall through to
// their own Partition.
func ReferencePartition(p Partitioner, h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	pp, ok := p.(*Pipeline)
	if !ok {
		return p.Partition(h, wm, nprocs)
	}
	if err := checkArgs(h, nprocs); err != nil {
		return nil, err
	}
	spec := pp.spec(h, nprocs)
	var units []Unit
	switch spec.decomp.kind {
	case decompVarGrain:
		threshold := spec.decomp.threshold(samr.HierarchyWork(h, unprepared{wm}), nprocs)
		units = variableGrainUnits(h, unprepared{wm}, threshold, spec.decomp.minSide)
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
	owner := make([]int, len(units))
	if spec.caps != nil {
		weightedSequence(weightsOf(units), spec.caps, owner)
	} else {
		spec.split.owners(weightsOf(units), nprocs, owner, nil)
	}
	return assembleWith(units, owner, nprocs, spec.cost), nil
}

// variableGrainUnits is appendVariableGrainUnits into a fresh slice.
func variableGrainUnits(h *samr.Hierarchy, wm samr.WorkModel, threshold float64, minSide int) []Unit {
	return appendVariableGrainUnits(nil, new(samr.BoxWeigher), h, wm, threshold, minSide)
}

// assembleWith is assemble with an explicit splitting-algorithm cost.
func assembleWith(units []Unit, owner []int, nprocs int, splitCost float64) *Assignment {
	a := assemble(units, owner, nprocs)
	a.SplitCost = splitCost
	return a
}

// orderUnits sorts units along the given curve, mapping each unit's center
// into the hierarchy's finest index space so that units from all levels
// share one locality-preserving order.
func orderUnits(units []Unit, h *samr.Hierarchy, curve sfc.Curve) {
	finest := h.Depth() - 1
	type keyed struct {
		key  uint64
		unit Unit
	}
	tmp := make([]keyed, len(units))
	for i, u := range units {
		scale := 1
		for l := u.Level; l < finest; l++ {
			scale *= h.Ratio
		}
		cx := uint32((u.Box.Lo[0] + u.Box.Hi[0]) * scale / 2)
		cy := uint32((u.Box.Lo[1] + u.Box.Hi[1]) * scale / 2)
		cz := uint32((u.Box.Lo[2] + u.Box.Hi[2]) * scale / 2)
		tmp[i] = keyed{key: curve.Index(cx, cy, cz), unit: u}
	}
	slices.SortStableFunc(tmp, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	for i := range tmp {
		units[i] = tmp[i].unit
	}
}

func weightsOf(units []Unit) []float64 {
	w := make([]float64, len(units))
	for i, u := range units {
		w[i] = u.Weight
	}
	return w
}
