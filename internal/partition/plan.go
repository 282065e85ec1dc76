package partition

// The partitioner pipeline (DESIGN.md §16). Every curve partitioner — the
// ISP suite, EqualBlock and Heterogeneous — is the same four steps — decompose the hierarchy into weighted units, key each
// unit's center along a space-filling curve, stable-sort by key, split the
// ordered weights across processors — and differs only in its pipelineSpec.
// The candidate stage (PartitionPlan.Propose) runs them once, serially,
// from scratch, on the calling goroutine, into plan scratch; the
// materialize stage (Candidate.Materialize) copies one candidate into a
// fresh Assignment. The test oracle ReferencePartition (partref_test.go) is
// the same pipeline with the library sort and the unprepared work model,
// and the two must agree bit for bit.

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
	kind    decompKind
	side    int     // block side (decompBlock)
	factor  float64 // subdivision threshold is total work/(nprocs*factor) (decompVarGrain)
	minSide int     // smallest side subdivision may produce (decompVarGrain)
}

// threshold returns the variable-grain subdivision threshold for h across
// nprocs, given the hierarchy's total work.
func (d decompSpec) threshold(total float64, nprocs int) float64 {
	return total / (float64(nprocs) * d.factor)
}

// units appends the decomposition of h across nprocs to dst, in
// generation order (level-major, box order), weighing through w.
func (d decompSpec) units(dst []Unit, w *samr.BoxWeigher, h *samr.Hierarchy, wm samr.WorkModel, nprocs int) []Unit {
	if d.kind == decompVarGrain {
		threshold := d.threshold(w.HierarchyWork(wm, h), nprocs)
		return appendVariableGrainUnits(dst, w, h, wm, threshold, d.minSide)
	}
	return appendBlockUnits(dst, w, h, wm, d.side)
}

// pipelineSpec is one partitioner's instantiation of the shared
// pipeline: decompose, order along the curve, split the sequence.
type pipelineSpec struct {
	decomp decompSpec
	curve  sfc.Curve // nil = default Hilbert curve for the hierarchy
	split  splitKind
	caps   []float64 // relative capacities, one per processor: weightedSequence splits instead of split; nil = equal shares
	cost   float64   // SplitCost of the produced assignment
}

// splitKind names the sequence splitter a partitioner uses (seq.go).
type splitKind uint8

const (
	splitGreedy     splitKind = iota + 1 // greedyPrefix
	splitOptimal                         // optimalSequence
	splitDissection                      // binaryDissection
)

// owners writes the split of the ordered weights across nprocs into owner
// (as long as weights). prefix is binaryDissection's working memory; it is
// returned, grown if the splitter needed more, for the next call.
func (k splitKind) owners(weights []float64, nprocs int, owner []int, prefix []float64) []float64 {
	switch k {
	case splitOptimal:
		optimalSequence(weights, nprocs, owner)
	case splitDissection:
		return binaryDissection(weights, nprocs, owner, prefix)
	default:
		greedyPrefix(weights, nprocs, owner)
	}
	return prefix
}

// pipelinePartitioner is implemented by every partitioner built on the
// shared pipeline; it is what both the production pipeline and the
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

// Compile-time proof that every curve partitioner partitions through a
// plan.
var (
	_ IncrementalPartitioner = SFC{}
	_ IncrementalPartitioner = GMISP{}
	_ IncrementalPartitioner = GMISPSP{}
	_ IncrementalPartitioner = PBDISP{}
	_ IncrementalPartitioner = SPISP{}
	_ IncrementalPartitioner = ISP{}
	_ IncrementalPartitioner = EqualBlock{}
	_ IncrementalPartitioner = Heterogeneous{}
)

// PartitionPlan is the pipeline's scratch. The decomposition, sort and
// split scratch — the unit list in generation order, its curve keys, the
// sort permutation, the ordered weights, the splitter's prefix sums, the
// prepared work model — is shared by every call: one candidate's is
// consumed before the next decomposition runs. The candidate outputs —
// ordered units, owners, the per-processor work — live in two slots for
// Propose, so two candidates can be compared, plus one that
// PartitionIncremental works in, so a partitioner that reaches the
// pipeline through PartitionIncremental while Propose holds two candidates
// never overwrites one. Capacity survives from call to call; contents do
// not, and no assignment ever aliases them: a materialized assignment
// takes its candidate's units and owners with it and the plan keeps no
// reference to them, because assignments outlive the regrid that made
// them (core.Run keeps the previous one for the migration diff and
// checkpoints it).
//
// A PartitionPlan is NOT safe for concurrent use; core.Run owns one per run
// and uses it from its deciding stage only. The zero value is ready, and a
// fresh one is always valid — resume from checkpoint simply starts with
// empty buffers.
type PartitionPlan struct {
	weigher samr.BoxWeigher
	units   []Unit
	keys    []uint64
	scales  []int // Ratio^(finest-l) per level
	sortIdx []int32
	sortTmp []int32
	weights []float64 // the ordered units' weights, the splitter's input
	prefix  []float64 // binaryDissection's prefix sums

	slots  [2]Candidate // Propose's
	direct Candidate    // PartitionIncremental's

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

// Candidate is one partitioner's answer before anything is materialized:
// the units in curve order, their owners and the per-processor work
// vector, held in the scratch of the PartitionPlan that proposed it. It
// stays valid until it is materialized or the next Propose into the same
// slot. A partitioner with no candidate stage is its own candidate: the
// candidate holds its fresh assignment and materializes as exactly that
// assignment.
type Candidate struct {
	// SplitCost is the SplitCost the materialized assignment carries. A
	// caller may charge extra work to it before Materialize.
	SplitCost float64

	nprocs int
	units  []Unit // curve order
	owner  []int
	work   []float64 // per processor, summed in unit order
	fresh  *Assignment
}

// Len returns the number of units in the candidate.
func (c *Candidate) Len() int {
	if c.fresh != nil {
		return len(c.fresh.Units)
	}
	return len(c.units)
}

// Imbalance returns the candidate's percentage load imbalance: what
// Imbalance returns on its materialized assignment, bit for bit.
func (c *Candidate) Imbalance() float64 { return ImbalanceOf(c.work) }

// Materialize returns the candidate as an assignment, once. A candidate
// from plan scratch hands its units and owners over to a fresh Assignment
// and its slot grows new ones for the next candidate, so the assignment
// outlives the plan's next call without a copy: the struct, its Units and
// its Owner are the only allocations the winner costs, and a candidate
// that is never materialized costs none. A partitioner's own assignment
// is returned as it came, with the candidate's SplitCost.
func (c *Candidate) Materialize() *Assignment {
	if c.fresh != nil {
		c.fresh.SplitCost = c.SplitCost
		return c.fresh
	}
	a := &Assignment{NProcs: c.nprocs, Units: c.units, Owner: c.owner, SplitCost: c.SplitCost}
	c.units, c.owner = nil, nil
	return a
}

// Propose runs part's candidate stage into slot (0 or 1) of the plan's
// scratch and returns the candidate, which is valid until it is
// materialized or the next Propose into that slot. Once the plan's
// buffers have grown to the run's size, a pipeline partitioner's candidate
// allocates nothing but Heterogeneous's capacities of all ones. Any other
// partitioner — PatchGreedy, or one wrapped by a caller — is called
// through PartitionIncremental when it has one, else Partition, and is its
// own candidate.
func (p *PartitionPlan) Propose(slot int, part Partitioner, h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Candidate, error) {
	c := &p.slots[slot]
	if pp, ok := part.(pipelinePartitioner); ok {
		if err := p.candidate(c, pp.Name(), pp.pipeline, h, wm, nprocs); err != nil {
			return nil, err
		}
		return c, nil
	}
	var a *Assignment
	var err error
	if ip, ok := part.(IncrementalPartitioner); ok {
		a, err = ip.PartitionIncremental(h, wm, nprocs, p)
	} else {
		a, err = part.Partition(h, wm, nprocs)
	}
	if err != nil {
		return nil, err
	}
	c.fresh, c.nprocs, c.SplitCost = a, a.NProcs, a.SplitCost
	c.work = a.WorkInto(c.work)
	return c, nil
}

// candidate runs the shared pipeline for the partitioner called name, whose
// pipeline method is given, into c, in the plan's shared decomposition and
// sort scratch, and observes its duration. It takes the method rather than
// the partitioner so that a concrete partitioner is not boxed into an
// interface (an allocation) on every call.
func (p *PartitionPlan) candidate(c *Candidate, name string, pipeline func(*samr.Hierarchy, samr.WorkModel, int) pipelineSpec, h *samr.Hierarchy, wm samr.WorkModel, nprocs int) error {
	if err := checkArgs(h, nprocs); err != nil {
		return err
	}
	start := time.Now()
	spec := pipeline(h, wm, nprocs)
	curve := spec.curve
	if curve == nil {
		curve = curveFor(h)
	}
	perm := p.order(h, wm, nprocs, spec.decomp, curve)
	if len(perm) == 0 {
		return fmt.Errorf("partition: hierarchy produced no units")
	}
	n := len(perm)
	p.totalUnits += int64(n)
	c.fresh, c.nprocs, c.SplitCost = nil, nprocs, spec.cost
	// Grown once to size: appending from empty would reallocate at every
	// doubling, which a short run never amortizes.
	c.units, p.weights = grow(c.units, n), grow(p.weights, n)
	for _, id := range perm {
		u := p.units[id]
		c.units = append(c.units, u)
		p.weights = append(p.weights, u.Weight)
	}
	c.owner = grow(c.owner, n)[:n]
	if spec.caps != nil {
		weightedSequence(p.weights, spec.caps, c.owner)
	} else {
		p.prefix = spec.split.owners(p.weights, nprocs, c.owner, p.prefix)
	}
	c.work = workInto(c.work, nprocs, c.units, c.owner)
	metricPartitionSeconds.With(name).Observe(time.Since(start).Seconds())
	return nil
}

// order decomposes h across nprocs under spec into the plan's unit
// scratch and returns the permutation that puts the units in curve order.
// Equal keys keep generation order: the radix sort is stable, like the
// reference's sort.
func (p *PartitionPlan) order(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, spec decompSpec, curve sfc.Curve) []int32 {
	p.units = spec.units(p.units[:0], &p.weigher, h, wm, nprocs)
	if len(p.units) == 0 {
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
	return radixSortRun(p.keys, p.sortIdx, p.sortTmp)
}

// grow returns s emptied, with room for n elements: s itself when it has
// the capacity, else one new allocation of exactly that size.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
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

// partitionPipeline runs the candidate stage for one partitioner in
// plan's own slot (a nil plan gets a throwaway one) and materializes it.
func partitionPipeline(name string, pipeline func(*samr.Hierarchy, samr.WorkModel, int) pipelineSpec, h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	if plan == nil {
		plan = &PartitionPlan{}
	}
	if err := plan.candidate(&plan.direct, name, pipeline, h, wm, nprocs); err != nil {
		return nil, err
	}
	return plan.direct.Materialize(), nil
}
