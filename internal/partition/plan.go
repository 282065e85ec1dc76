package partition

// This file implements the delta-regrid partitioning pipeline. Regrids are
// local: between two consecutive regrid cycles most hierarchy boxes are
// unchanged, yet the partitioners historically rebuilt every unit, re-keyed
// every unit center along the space-filling curve, and re-sorted the whole
// sequence from scratch. A PartitionPlan carried across cycles (alongside
// the CommPlan core.Run already threads through) caches the per-box
// decomposition and SFC keys of the previous hierarchy so that only the
// changed boxes are re-decomposed and re-keyed; the already-ordered
// unchanged run is then merged with the freshly keyed delta instead of
// re-sorting everything. Cold calls (nil or empty plan) take a parallel
// decomposition + radix-sort path.
//
// Determinism contract (same as commref.go for the PAC kernel): the output
// of PartitionIncremental is bit-identical to ReferencePartition — the
// retained sequential from-scratch pipeline — at any GOMAXPROCS, for any
// sequence of hierarchy deltas, and for a cold plan (resume from
// checkpoint). Changed boxes are decomposed by independent tasks whose
// results are concatenated in deterministic task order (level-major, box
// order, ascending x-range), which reproduces the sequential generation
// order exactly; the stable LSD radix sort and the (key, generation-index)
// merge both reproduce the stable sort-by-key of the reference.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
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
	// decompVarGrain recursively halves heavy boxes (variableGrainUnits).
	decompVarGrain
)

// decompSpec fully describes a partitioner's decomposition step.
type decompSpec struct {
	kind      decompKind
	side      int     // block side (decompBlock)
	threshold float64 // subdivision threshold (decompVarGrain)
	minSide   int     // smallest side subdivision may produce (decompVarGrain)
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
// shared ISP pipeline; it is what both the delta pipeline and the
// from-scratch reference consume, so the two can never disagree about a
// partitioner's parameters.
type pipelinePartitioner interface {
	Partitioner
	pipeline(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) pipelineSpec
}

// IncrementalPartitioner is a Partitioner able to reuse a PartitionPlan
// carried across regrid cycles. PartitionIncremental with a nil plan is
// exactly Partition; with a plan it additionally caches this cycle's
// decomposition so the next cycle only recomputes changed boxes. The
// returned assignment is bit-identical either way.
type IncrementalPartitioner interface {
	Partitioner
	PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error)
}

// cacheSig pins everything a cached decomposition depends on besides the
// box list itself. A signature mismatch (depth change, curve resolution
// change, granularity change from a different nprocs, ...) invalidates the
// cache wholesale; the vargrain threshold is deliberately absent because it
// moves with total work every cycle and is validated per box instead.
type cacheSig struct {
	curve   string
	bits    uint
	ratio   int
	depth   int
	kind    decompKind
	side    int
	minSide int
}

// cachedBox is one hierarchy box's decomposition: its units in generation
// order, their SFC keys, and — for variable-grain decompositions — the
// half-open threshold window [minT, maxT) over which the recursion would
// reproduce exactly these leaves.
type cachedBox struct {
	box        samr.Box
	units      []Unit
	keys       []uint64
	minT, maxT float64
}

// orderRef locates one unit of the curve-ordered sequence inside the
// per-box cache: cache.levels[level][box].units[off], ordered by
// (key, generation index).
type orderRef struct {
	key             uint64
	level, box, off int32
}

// unitCache is one partitioner's cached decomposition of the previous
// hierarchy.
type unitCache struct {
	sig    cacheSig
	wm     samr.WorkModel // nil when the model's dynamic type is not comparable
	levels [][]cachedBox
	order  []orderRef
}

// PartitionPlan carries partitioner state across regrid cycles: per-
// partitioner decomposition caches (so the meta-partitioner's switching
// never poisons another partitioner's cache) and arena-style scratch
// buffers (weights, sort indices, order refs) reused from cycle to cycle.
//
// A PartitionPlan is NOT safe for concurrent use; core.Run owns one per
// run and uses it from the single replay goroutine. A fresh (or nil) plan
// is always valid — resume from checkpoint simply starts cold.
type PartitionPlan struct {
	caches map[string]*unitCache

	// Scratch arenas. Contents are dead between calls; only capacity is
	// reused.
	weights   []float64
	sortIdx   []int32
	sortTmp   []int32
	freshKeys []uint64
	fresh     []orderRef
	reused    []orderRef

	reusedUnits int64
	totalUnits  int64
	lastReused  int
	lastTotal   int
}

// NewPartitionPlan returns an empty plan; the first partition through it is
// a cold from-scratch build that seeds the cache.
func NewPartitionPlan() *PartitionPlan {
	return &PartitionPlan{caches: make(map[string]*unitCache)}
}

// Stats reports cumulative units reused from cache versus total units
// emitted across all incremental partitions through this plan.
func (p *PartitionPlan) Stats() (reused, total int64) {
	return p.reusedUnits, p.totalUnits
}

// LastReuseRatio reports the fraction of units served from cache by the
// most recent incremental partition (0 for a cold build).
func (p *PartitionPlan) LastReuseRatio() float64 {
	if p.lastTotal == 0 {
		return 0
	}
	return float64(p.lastReused) / float64(p.lastTotal)
}

// keyer maps unit centers into the hierarchy's finest index space and onto
// the curve, replicating orderUnits' arithmetic exactly.
type keyer struct {
	curve  sfc.Curve
	scales []int // Ratio^(finest-l) per level
}

func newKeyer(h *samr.Hierarchy, curve sfc.Curve) keyer {
	depth := h.Depth()
	scales := make([]int, depth)
	for l := 0; l < depth; l++ {
		s := 1
		for k := l; k < depth-1; k++ {
			s *= h.Ratio
		}
		scales[l] = s
	}
	return keyer{curve: curve, scales: scales}
}

func (k keyer) key(level int, b samr.Box) uint64 {
	s := k.scales[level]
	cx := uint32((b.Lo[0] + b.Hi[0]) * s / 2)
	cy := uint32((b.Lo[1] + b.Hi[1]) * s / 2)
	cz := uint32((b.Lo[2] + b.Hi[2]) * s / 2)
	return k.curve.Index(cx, cy, cz)
}

// decompOut is one decomposition task's result: units in generation order,
// their keys, and the vargrain threshold window.
type decompOut struct {
	units      []Unit
	keys       []uint64
	minT, maxT float64
}

// blockBoxUnits emits the blocks of box b restricted to x-range [x0, x1),
// replicating blockUnits' nesting (x outer, z inner) and clamping exactly.
func blockBoxUnits(h *samr.Hierarchy, wm samr.WorkModel, l int, b samr.Box, side, x0, x1 int, k keyer) decompOut {
	out := decompOut{minT: 0, maxT: math.Inf(1)}
	if side <= 0 {
		u := Unit{Level: l, Box: b, Weight: wm.BoxWork(h, l, b)}
		out.units = []Unit{u}
		out.keys = []uint64{k.key(l, b)}
		return out
	}
	nx := (x1 - x0 + side - 1) / side
	ny := (b.Dx(1) + side - 1) / side
	nz := (b.Dx(2) + side - 1) / side
	out.units = make([]Unit, 0, nx*ny*nz)
	out.keys = make([]uint64, 0, nx*ny*nz)
	for x := x0; x < x1; x += side {
		for y := b.Lo[1]; y < b.Hi[1]; y += side {
			for z := b.Lo[2]; z < b.Hi[2]; z += side {
				blk := samr.Box{
					Lo: samr.Point{x, y, z},
					Hi: samr.Point{
						min(x+side, b.Hi[0]),
						min(y+side, b.Hi[1]),
						min(z+side, b.Hi[2]),
					},
				}
				out.units = append(out.units, Unit{Level: l, Box: blk, Weight: wm.BoxWork(h, l, blk)})
				out.keys = append(out.keys, k.key(l, blk))
			}
		}
	}
	return out
}

// varGrainBoxUnits runs variableGrainUnits' recursion for one box, tracking
// the threshold window over which the recursion shape is invariant: every
// weight-stopped leaf requires threshold >= its weight (minT), every split
// node requires threshold < its weight (maxT). Size-stopped leaves hold for
// every threshold.
func varGrainBoxUnits(h *samr.Hierarchy, wm samr.WorkModel, l int, b samr.Box, threshold float64, minSide int, k keyer) decompOut {
	if minSide < 1 {
		minSide = 1
	}
	out := decompOut{minT: 0, maxT: math.Inf(1)}
	var split func(b samr.Box)
	split = func(b samr.Box) {
		w := wm.BoxWork(h, l, b)
		longest := 0
		for d := 1; d < 3; d++ {
			if b.Dx(d) > b.Dx(longest) {
				longest = d
			}
		}
		if w <= threshold || b.Dx(longest) < 2*minSide {
			if b.Dx(longest) >= 2*minSide && w > out.minT {
				out.minT = w
			}
			out.units = append(out.units, Unit{Level: l, Box: b, Weight: w})
			out.keys = append(out.keys, k.key(l, b))
			return
		}
		if w < out.maxT {
			out.maxT = w
		}
		lo, hi := b.Split(longest, b.Lo[longest]+b.Dx(longest)/2)
		split(lo)
		split(hi)
	}
	split(b)
	return out
}

// decompTask is one independent decomposition task: a hierarchy box, or an
// x-range slice of one (block decompositions of big boxes fan out over
// block columns; concatenating slice results in ascending-x order
// reproduces the sequential generation order).
type decompTask struct {
	level, box int
	x0, x1     int
	out        decompOut
}

func (t *decompTask) run(h *samr.Hierarchy, wm samr.WorkModel, spec decompSpec, k keyer) {
	b := h.Levels[t.level][t.box]
	if spec.kind == decompVarGrain {
		t.out = varGrainBoxUnits(h, wm, t.level, b, spec.threshold, spec.minSide, k)
		return
	}
	t.out = blockBoxUnits(h, wm, t.level, b, spec.side, t.x0, t.x1, k)
}

// parallelCellThreshold is the changed-cell count below which the
// decomposition stays on the calling goroutine: tiny deltas are not worth
// the fan-out. Results are bit-identical either way.
const parallelCellThreshold = 1 << 15

// workersFor picks the worker count for the given cell count:
// GOMAXPROCS-wide unless the work is too small to fan out.
func workersFor(cells int64) int {
	w := runtime.GOMAXPROCS(0)
	if w <= 1 || cells < parallelCellThreshold {
		return 1
	}
	return w
}

// forEachTask runs fn(i, worker) for every task index, fanning out over
// the given number of workers. Task results must be written into
// per-task storage; completion order is irrelevant to callers because
// merging happens afterwards in task order.
func forEachTask(n, workers int, fn func(i, worker int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, worker)
			}
		}(w)
	}
	wg.Wait()
}

// changedTasks builds the deterministic task list for the changed boxes
// (reuse[l][j] == nil). Block decompositions of boxes worth parallelizing
// are sliced into up to 2*workers column ranges; the slicing never affects
// output (results concatenate in task order) — only load balance.
func changedTasks(h *samr.Hierarchy, spec decompSpec, reuse [][]*cachedBox, workers int) []decompTask {
	var tasks []decompTask
	for l, boxes := range h.Levels {
		for j, b := range boxes {
			if reuse[l][j] != nil {
				continue
			}
			if spec.kind != decompBlock || spec.side <= 0 ||
				workers <= 1 || b.Volume() < parallelCellThreshold {
				tasks = append(tasks, decompTask{level: l, box: j, x0: b.Lo[0], x1: b.Hi[0]})
				continue
			}
			ncol := (b.Dx(0) + spec.side - 1) / spec.side
			nsub := min(ncol, 2*workers)
			per := (ncol + nsub - 1) / nsub
			for c := 0; c < ncol; c += per {
				x0 := b.Lo[0] + c*spec.side
				x1 := min(b.Lo[0]+(c+per)*spec.side, b.Hi[0])
				tasks = append(tasks, decompTask{level: l, box: j, x0: x0, x1: x1})
			}
		}
	}
	return tasks
}

// comparableWM returns wm when its dynamic type supports ==, else nil.
// Cached units may only be reused when the work model compares equal to the
// cached one; an uncomparable model (e.g. samr.FrontWorkModel, whose fronts
// move every cycle) honestly forces a full rebuild.
func comparableWM(wm samr.WorkModel) samr.WorkModel {
	if wm == nil || !reflect.TypeOf(wm).Comparable() {
		return nil
	}
	return wm
}

// decomposeOrdered produces the curve-ordered unit sequence for (h, wm)
// under spec, reusing plan's cache for this partitioner when possible and
// updating it for the next cycle. The returned slice is freshly allocated
// on every call (assignments outlive the plan); reused counts how many
// units were served from cache.
func decomposeOrdered(name string, h *samr.Hierarchy, wm samr.WorkModel, spec decompSpec, curve sfc.Curve, plan *PartitionPlan) (units []Unit, reusedN, total int) {
	depth := h.Depth()
	sig := cacheSig{
		curve: curve.Name(), bits: curve.Bits(),
		ratio: h.Ratio, depth: depth,
		kind: spec.kind, side: spec.side, minSide: spec.minSide,
	}
	var cache *unitCache
	if plan != nil {
		cache = plan.caches[name]
		if cache != nil && cache.sig != sig {
			cache = nil
		}
	}
	cwm := comparableWM(wm)

	// Match unchanged boxes per level. Matches must be order-preserving
	// (strictly increasing cache positions) so that the cached global order,
	// filtered to survivors, remains sorted by (key, new generation index).
	reuse := make([][]*cachedBox, depth)
	var oldNew [][]int32
	if cache != nil {
		oldNew = make([][]int32, depth)
	}
	var changedCells int64
	for l, boxes := range h.Levels {
		reuse[l] = make([]*cachedBox, len(boxes))
		var idx map[samr.Box]int
		if cache != nil {
			old := cache.levels[l]
			oldNew[l] = make([]int32, len(old))
			for i := range oldNew[l] {
				oldNew[l][i] = -1
			}
			idx = make(map[samr.Box]int, len(old))
			for i := range old {
				idx[old[i].box] = i
			}
		}
		last := -1
		for j, b := range boxes {
			if cache != nil {
				if i, ok := idx[b]; ok && i > last {
					cb := &cache.levels[l][i]
					valid := cwm != nil && cache.wm != nil && cwm == cache.wm
					if valid && spec.kind == decompVarGrain {
						valid = cb.minT <= spec.threshold && spec.threshold < cb.maxT
					}
					if valid {
						last = i
						reuse[l][j] = cb
						oldNew[l][i] = int32(j)
						continue
					}
				}
			}
			changedCells += b.Volume()
		}
	}

	// Decompose the changed boxes in parallel; results merge in task order.
	workers := workersFor(changedCells)
	tasks := changedTasks(h, spec, reuse, workers)
	k := newKeyer(h, curve)
	forEachTask(len(tasks), workers, func(i, _ int) {
		tasks[i].run(h, wm, spec, k)
	})

	// Assemble the new per-box cache level by level, concatenating each
	// changed box's task slices, and compute generation-index bases.
	newLevels := make([][]cachedBox, depth)
	base := make([][]int32, depth)
	ti := 0
	for l, boxes := range h.Levels {
		newLevels[l] = make([]cachedBox, len(boxes))
		base[l] = make([]int32, len(boxes))
		for j, b := range boxes {
			base[l][j] = int32(total)
			if cb := reuse[l][j]; cb != nil {
				newLevels[l][j] = *cb
				reusedN += len(cb.units)
				total += len(cb.units)
				continue
			}
			n := 0
			t0 := ti
			for ti < len(tasks) && tasks[ti].level == l && tasks[ti].box == j {
				n += len(tasks[ti].out.units)
				ti++
			}
			nb := cachedBox{box: b, minT: 0, maxT: math.Inf(1)}
			if ti == t0+1 {
				nb.units = tasks[t0].out.units
				nb.keys = tasks[t0].out.keys
				nb.minT, nb.maxT = tasks[t0].out.minT, tasks[t0].out.maxT
			} else {
				nb.units = make([]Unit, 0, n)
				nb.keys = make([]uint64, 0, n)
				for t := t0; t < ti; t++ {
					nb.units = append(nb.units, tasks[t].out.units...)
					nb.keys = append(nb.keys, tasks[t].out.keys...)
				}
			}
			newLevels[l][j] = nb
			total += n
		}
	}
	if total == 0 {
		return nil, 0, 0
	}

	// Fresh run: the changed boxes' refs in generation order, radix-sorted
	// stably by key (stability keeps equal keys in generation order, exactly
	// like the reference's stable sort).
	freshN := total - reusedN
	var fresh, reusedRun []orderRef
	var sortIdx, sortTmp []int32
	var keys []uint64
	if plan != nil {
		fresh = refArena(&plan.fresh, freshN)
		reusedRun = refArena(&plan.reused, reusedN)
		sortIdx = i32Arena(&plan.sortIdx, freshN)
		sortTmp = i32Arena(&plan.sortTmp, freshN)[:freshN]
		keys = u64Arena(&plan.freshKeys, freshN)
	} else {
		fresh = make([]orderRef, 0, freshN)
		sortIdx = make([]int32, 0, freshN)
		sortTmp = make([]int32, freshN)
		keys = make([]uint64, 0, freshN)
	}
	for l := range newLevels {
		for j := range newLevels[l] {
			if reuse[l][j] != nil {
				continue
			}
			nb := &newLevels[l][j]
			for off := range nb.units {
				fresh = append(fresh, orderRef{key: nb.keys[off], level: int32(l), box: int32(j), off: int32(off)})
				keys = append(keys, nb.keys[off])
			}
		}
	}
	for i := 0; i < freshN; i++ {
		sortIdx = append(sortIdx, int32(i))
	}
	perm := radixSortRun(keys, sortIdx, sortTmp)

	// Reused run: the cached global order filtered to surviving boxes,
	// re-addressed to new box indices. Order-preserving matching guarantees
	// it is already sorted by (key, new generation index).
	if cache != nil && reusedN > 0 {
		for _, r := range cache.order {
			if j := oldNew[r.level][r.box]; j >= 0 {
				reusedRun = append(reusedRun, orderRef{key: r.key, level: r.level, box: j, off: r.off})
			}
		}
	}

	// Merge the two runs by (key, generation index) into the output and the
	// next cycle's global order.
	units = make([]Unit, 0, total)
	var newOrder []orderRef
	if plan != nil {
		newOrder = make([]orderRef, 0, total)
	}
	gen := func(r orderRef) int32 { return base[r.level][r.box] + r.off }
	emit := func(r orderRef) {
		units = append(units, newLevels[r.level][r.box].units[r.off])
		if plan != nil {
			newOrder = append(newOrder, r)
		}
	}
	i, j := 0, 0
	for i < len(reusedRun) && j < len(perm) {
		a, b := reusedRun[i], fresh[perm[j]]
		if a.key < b.key || (a.key == b.key && gen(a) < gen(b)) {
			emit(a)
			i++
		} else {
			emit(b)
			j++
		}
	}
	for ; i < len(reusedRun); i++ {
		emit(reusedRun[i])
	}
	for ; j < len(perm); j++ {
		emit(fresh[perm[j]])
	}

	if plan != nil {
		plan.caches[name] = &unitCache{sig: sig, wm: cwm, levels: newLevels, order: newOrder}
	}
	return units, reusedN, total
}

// refArena / i32Arena / u64Arena grow-and-reset the plan's scratch buffers:
// capacity survives across cycles, contents do not.
func refArena(buf *[]orderRef, n int) []orderRef {
	if cap(*buf) < n {
		*buf = make([]orderRef, 0, n)
	}
	*buf = (*buf)[:0]
	return *buf
}

func i32Arena(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, 0, n)
	}
	*buf = (*buf)[:0]
	return *buf
}

func u64Arena(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, 0, n)
	}
	*buf = (*buf)[:0]
	return *buf
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

// partitionPipeline runs the shared delta-aware pipeline for one
// partitioner: decompose (incrementally when the plan has a valid cache),
// order, split, assemble — observing per-partitioner timing and the
// cache-reuse ratio.
func partitionPipeline(p pipelinePartitioner, h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	if err := checkArgs(h, nprocs); err != nil {
		return nil, err
	}
	start := time.Now()
	spec := p.pipeline(h, wm, nprocs)
	curve := spec.curve
	if curve == nil {
		curve = curveFor(h)
	}
	units, reused, total := decomposeOrdered(p.Name(), h, wm, spec.decomp, curve, plan)
	if total == 0 {
		return nil, fmt.Errorf("partition: hierarchy produced no units")
	}
	var weights []float64
	if plan != nil {
		if cap(plan.weights) < len(units) {
			plan.weights = make([]float64, len(units))
		}
		weights = plan.weights[:len(units)]
	} else {
		weights = make([]float64, len(units))
	}
	for i, u := range units {
		weights[i] = u.Weight
	}
	a := &Assignment{NProcs: nprocs, Units: units, Owner: spec.split(weights, nprocs), SplitCost: spec.cost}
	metricPartitionSeconds.With(p.Name()).Observe(time.Since(start).Seconds())
	if plan != nil {
		plan.lastReused, plan.lastTotal = reused, total
		plan.reusedUnits += int64(reused)
		plan.totalUnits += int64(total)
		metricPartitionReuse.Set(plan.LastReuseRatio())
	}
	return a, nil
}
