package partition

// The partitioner pipeline (DESIGN.md §16). Every ISP partitioner is the
// same four steps — decompose the hierarchy into weighted units, key each
// unit's center along a space-filling curve, stable-sort by key, split the
// ordered weights across processors — and differs only in its pipelineSpec.
// partitionPipeline runs them once, serially, from scratch, on the calling
// goroutine; the test oracle ReferencePartition (partref_test.go) is the
// same pipeline with the library sort and the unprepared work model, and
// the two must agree bit for bit.

import (
	"fmt"
	"time"

	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/sfc"
)

// decompKind names the unit decomposition family a partitioner uses.
type decompKind uint8

const (
	// decompBlock cuts every hierarchy box into fixed-side blocks
	// (blockUnits); side <= 0 keeps whole boxes ("patch granularity").
	decompBlock decompKind = iota + 1
	// decompVarGrain recursively halves heavy boxes (appendVariableGrainUnits).
	decompVarGrain
)

// decompSpec fully describes a partitioner's decomposition step.
type decompSpec struct {
	kind      decompKind
	side      int     // block side (decompBlock)
	threshold float64 // subdivision threshold (decompVarGrain)
	minSide   int     // smallest side subdivision may produce (decompVarGrain)
}

// units appends the decomposition of h to dst, in generation order
// (level-major, box order), weighing through w.
func (d decompSpec) units(dst []Unit, w *samr.BoxWeigher, h *samr.Hierarchy, wm samr.WorkModel) []Unit {
	if d.kind == decompVarGrain {
		return appendVariableGrainUnits(dst, w, h, wm, d.threshold, d.minSide)
	}
	return appendBlockUnits(dst, w, h, wm, d.side)
}

// pipelineSpec is one partitioner's instantiation of the shared ISP
// pipeline: decompose, order along the curve, split the sequence.
type pipelineSpec struct {
	decomp decompSpec
	curve  sfc.Curve // nil = default Hilbert curve for the hierarchy
	split  func(weights []float64, nprocs int) []int
	cost   float64 // SplitCost of the produced assignment
}

// pipelinePartitioner is implemented by every partitioner built on the
// shared ISP pipeline; it is what both the production pipeline and the
// reference consume, so the two can never disagree about a partitioner's
// parameters.
type pipelinePartitioner interface {
	Partitioner
	pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec
}

// IncrementalPartitioner is a Partitioner that can work in scratch memory
// its caller owns: PartitionIncremental through a PartitionPlan allocates
// only the returned assignment once the plan's buffers have grown to the
// run's size. With a nil plan it is exactly Partition. Nothing is carried
// from one call to the next but capacity, so the assignment is the same
// either way and after any sequence of earlier calls.
//
// The interface and method names date from the delta-regrid cache this
// file once held; bench/e2e (frozen between benchmark issues) type-asserts
// and calls them, so they go with its partition.reuse_ratio metric in the
// next benchmark issue.
type IncrementalPartitioner interface {
	Partitioner
	PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error)
}

// Compile-time proof that the whole ISP suite partitions through a plan.
var (
	_ IncrementalPartitioner = SFC{}
	_ IncrementalPartitioner = GMISP{}
	_ IncrementalPartitioner = GMISPSP{}
	_ IncrementalPartitioner = PBDISP{}
	_ IncrementalPartitioner = SPISP{}
	_ IncrementalPartitioner = ISP{}
)

// PartitionPlan is the pipeline's scratch: the unit list in generation
// order, its curve keys, the sort permutation and the ordered weights, plus
// the prepared work model. Capacity survives from call to call; contents do
// not, and no assignment ever aliases it (Assignment.Units is a fresh slice
// every time, because assignments outlive the regrid that made them:
// core.Run keeps the previous one for the migration diff and checkpoints
// it).
//
// A PartitionPlan is NOT safe for concurrent use; core.Run owns one per run
// and uses it from the replay goroutine. The zero value is ready, and a
// fresh one is always valid — resume from checkpoint simply starts with
// empty buffers.
type PartitionPlan struct {
	weigher samr.BoxWeigher
	units   []Unit
	keys    []uint64
	scales  []int // Ratio^(finest-l) per level
	sortIdx []int32
	sortTmp []int32
	weights []float64

	totalUnits int64
}

// NewPartitionPlan returns an empty plan.
func NewPartitionPlan() *PartitionPlan { return &PartitionPlan{} }

// Stats reports the units emitted by all partitions through this plan, and
// zero for the units reused across regrids: there is no cache. The
// two-value shape is read by bench/e2e as partition.reuse_ratio and goes
// with that metric in the next benchmark issue.
func (p *PartitionPlan) Stats() (reused, total int64) {
	return 0, p.totalUnits
}

// orderedUnits decomposes h under spec and returns the units in curve
// order as a fresh slice, leaving their weights in the same order in
// p.weights. Equal keys keep generation order: the radix sort is stable,
// like the reference's sort.
func (p *PartitionPlan) orderedUnits(h *samr.Hierarchy, wm samr.WorkModel, spec decompSpec, curve sfc.Curve) []Unit {
	p.units = spec.units(p.units[:0], &p.weigher, h, wm)
	n := len(p.units)
	if n == 0 {
		return nil
	}

	// Unit centers map into the hierarchy's finest index space, so units
	// of all levels share one locality-preserving order (orderUnits'
	// arithmetic exactly).
	depth := h.Depth()
	p.scales = p.scales[:0]
	for l := 0; l < depth; l++ {
		s := 1
		for k := l; k < depth-1; k++ {
			s *= h.Ratio
		}
		p.scales = append(p.scales, s)
	}
	p.keys, p.sortIdx, p.sortTmp = p.keys[:0], p.sortIdx[:0], p.sortTmp[:0]
	for i := range p.units {
		u := &p.units[i]
		s := p.scales[u.Level]
		cx := uint32((u.Box.Lo[0] + u.Box.Hi[0]) * s / 2)
		cy := uint32((u.Box.Lo[1] + u.Box.Hi[1]) * s / 2)
		cz := uint32((u.Box.Lo[2] + u.Box.Hi[2]) * s / 2)
		p.keys = append(p.keys, curve.Index(cx, cy, cz))
		p.sortIdx = append(p.sortIdx, int32(i))
		p.sortTmp = append(p.sortTmp, 0)
	}
	perm := radixSortRun(p.keys, p.sortIdx, p.sortTmp)

	units := make([]Unit, n)
	p.weights = p.weights[:0]
	for i, id := range perm {
		units[i] = p.units[id]
		p.weights = append(p.weights, units[i].Weight)
	}
	return units
}

// radixSortRun stably sorts idx (a permutation of positions into keys) by
// keys[idx[i]] ascending, using tmp as swap space, and returns the sorted
// permutation (which may alias tmp). LSD byte passes bounded by the maximum
// key; stability is what keeps equal keys in generation order.
func radixSortRun(keys []uint64, idx, tmp []int32) []int32 {
	if len(idx) < 2 {
		return idx
	}
	var maxKey uint64
	for _, id := range idx {
		if keys[id] > maxKey {
			maxKey = keys[id]
		}
	}
	for shift := uint(0); shift < 64 && maxKey>>shift != 0; shift += 8 {
		var counts [256]int
		for _, id := range idx {
			counts[byte(keys[id]>>shift)]++
		}
		sum := 0
		for b := 0; b < 256; b++ {
			c := counts[b]
			counts[b] = sum
			sum += c
		}
		for _, id := range idx {
			b := byte(keys[id] >> shift)
			tmp[counts[b]] = id
			counts[b]++
		}
		idx, tmp = tmp, idx
	}
	return idx
}

// partitionPipeline runs the shared pipeline for one partitioner in plan's
// scratch (a nil plan gets a throwaway one) and observes its duration.
func partitionPipeline(p pipelinePartitioner, h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	if err := checkArgs(h, nprocs); err != nil {
		return nil, err
	}
	start := time.Now()
	if plan == nil {
		plan = &PartitionPlan{}
	}
	spec := p.pipeline(h, wm, nprocs)
	curve := spec.curve
	if curve == nil {
		curve = curveFor(h)
	}
	units := plan.orderedUnits(h, wm, spec.decomp, curve)
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: hierarchy produced no units")
	}
	plan.totalUnits += int64(len(units))
	a := &Assignment{NProcs: nprocs, Units: units, Owner: spec.split(plan.weights, nprocs), SplitCost: spec.cost}
	metricPartitionSeconds.With(p.Name()).Observe(time.Since(start).Seconds())
	return a, nil
}
