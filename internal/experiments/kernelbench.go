package experiments

import (
	"fmt"
	"time"

	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// KernelBenchRow compares the retained cell-by-cell reference kernel
// against the box-geometry CommPlan kernel for one PAC evaluation primitive.
type KernelBenchRow struct {
	// Kernel names the primitive: EvalQuality, Adjacency, Migration.
	Kernel string
	// ReferenceSeconds is the best-of-repeats wall time of the reference
	// (rasterize, per-cell at() lookups, map-based pair dedup).
	ReferenceSeconds float64
	// PlanSeconds is the best-of-repeats wall time of the CommPlan kernel
	// (unit-box index, neighbour and parent search; no cell visited).
	PlanSeconds float64
	// Speedup is ReferenceSeconds / PlanSeconds.
	Speedup float64
}

// kernelHierarchy is the paper-scale benchmark workload: the RM3D base grid
// (128x32x32, factor-2 refinement, 3 levels) with a moving slab and a blob
// carrying a deeper core — the shapes the Table 4 experiments sweep.
func kernelHierarchy() (*samr.Hierarchy, error) {
	h, err := samr.NewHierarchy(samr.MakeBox(128, 32, 32), 2)
	if err != nil {
		return nil, err
	}
	if err := h.SetLevel(1, []samr.Box{
		{Lo: samr.Point{40, 0, 0}, Hi: samr.Point{72, 64, 64}},
		{Lo: samr.Point{160, 16, 16}, Hi: samr.Point{224, 56, 56}},
	}); err != nil {
		return nil, err
	}
	if err := h.SetLevel(2, []samr.Box{
		{Lo: samr.Point{96, 16, 16}, Hi: samr.Point{128, 112, 112}},
		{Lo: samr.Point{352, 48, 48}, Hi: samr.Point{432, 104, 104}},
	}); err != nil {
		return nil, err
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// best times f repeats times and returns the fastest run in seconds.
func best(repeats int, f func()) float64 {
	bestS := 0.0
	for i := 0; i < repeats; i++ {
		start := time.Now()
		f()
		if s := time.Since(start).Seconds(); i == 0 || s < bestS {
			bestS = s
		}
	}
	return bestS
}

// KernelBench measures the before/after cost of the PAC evaluation kernels
// on the paper-scale hierarchy at 64 processors: the full quality metric,
// the adjacency search, and the migration diff (measured at its steady-state
// regrid cost, where both cycles' plans already exist). Rows feed the
// EXPERIMENTS.md kernel table and the -json bench baseline.
func KernelBench(repeats int) ([]KernelBenchRow, error) {
	if repeats < 1 {
		repeats = 1
	}
	h, err := kernelHierarchy()
	if err != nil {
		return nil, err
	}
	wm := samr.UniformWorkModel{}
	a, err := (partition.GMISPSP{}).Partition(h, wm, 64)
	if err != nil {
		return nil, err
	}
	prev, err := (partition.PBDISP{}).Partition(h, wm, 64)
	if err != nil {
		return nil, err
	}
	plan := partition.BuildCommPlan(h, a)
	prevPlan := partition.BuildCommPlan(h, prev)

	row := func(name string, ref, new func()) KernelBenchRow {
		r := KernelBenchRow{Kernel: name}
		r.ReferenceSeconds = best(repeats, ref)
		r.PlanSeconds = best(repeats, new)
		if r.PlanSeconds > 0 {
			r.Speedup = r.ReferenceSeconds / r.PlanSeconds
		}
		return r
	}
	rows := []KernelBenchRow{
		row("EvalQuality",
			func() {
				st, _ := partition.ReferenceCommunication(h, a)
				_ = st
				_ = partition.ReferenceMigrationFraction(h, prev, h, a)
			},
			func() { partition.EvalQuality(h, a, h, prev, 0) }),
		row("Adjacency",
			func() { partition.ReferenceCommunication(h, a) },
			func() { partition.BuildCommPlan(h, a) }),
		row("Migration",
			func() { partition.ReferenceMigrationFraction(h, prev, h, a) },
			func() { plan.MigrationFrom(prevPlan) }),
	}
	for _, r := range rows {
		if r.PlanSeconds <= 0 {
			return nil, fmt.Errorf("kernel %s: degenerate timing", r.Kernel)
		}
	}
	return rows, nil
}
