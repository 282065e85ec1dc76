package partition

import (
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/samr"
)

// paperHierarchy builds an RM3D-paper-scale hierarchy: 128x32x32 base
// grid, factor-2 refinement, three levels, with a moving slab and a blob
// with a deeper core — the shapes the Table 4/5 experiments sweep.
func paperHierarchy(tb testing.TB) *samr.Hierarchy {
	tb.Helper()
	h, err := samr.NewHierarchy(samr.MakeBox(128, 32, 32), 2)
	if err != nil {
		tb.Fatal(err)
	}
	// Level 1 (coords x2, domain 256x64x64).
	if err := h.SetLevel(1, []samr.Box{
		{Lo: samr.Point{40, 0, 0}, Hi: samr.Point{72, 64, 64}},
		{Lo: samr.Point{160, 16, 16}, Hi: samr.Point{224, 56, 56}},
	}); err != nil {
		tb.Fatal(err)
	}
	// Level 2 (coords x4): slab sheet and blob core.
	if err := h.SetLevel(2, []samr.Box{
		{Lo: samr.Point{96, 16, 16}, Hi: samr.Point{128, 112, 112}},
		{Lo: samr.Point{352, 48, 48}, Hi: samr.Point{432, 104, 104}},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		tb.Fatal(err)
	}
	return h
}

// paperAssignments partitions the paper-scale hierarchy for 64 processors
// with two different partitioners, giving a (prev, new) pair for the
// migration component.
func paperAssignments(tb testing.TB) (*samr.Hierarchy, *Assignment, *Assignment) {
	tb.Helper()
	h := paperHierarchy(tb)
	wm := samr.UniformWorkModel{}
	a, err := GMISPSP.Partition(h, wm, 64)
	if err != nil {
		tb.Fatal(err)
	}
	prev, err := PBDISP.Partition(h, wm, 64)
	if err != nil {
		tb.Fatal(err)
	}
	return h, a, prev
}

// referenceEvalQuality mirrors the pre-CommPlan EvalQuality exactly: one
// reference communication sweep plus one reference migration sweep, each
// re-rasterizing — the "before" side of the kernel benchmark.
func referenceEvalQuality(h *samr.Hierarchy, a *Assignment, prevH *samr.Hierarchy, prev *Assignment, elapsed time.Duration) Quality {
	st, _ := ReferenceCommunication(h, a)
	q := Quality{
		CommVolume:    st.Volume,
		CommMessages:  st.Messages,
		Imbalance:     a.Imbalance(),
		PartitionTime: elapsed,
	}
	if prev != nil && prevH != nil {
		q.Migration = ReferenceMigrationFraction(prevH, prev, h, a)
	}
	boxes := 0
	for _, lb := range h.Levels {
		boxes += len(lb)
	}
	if boxes > 0 {
		q.Overhead = float64(len(a.Units)) / float64(boxes)
	}
	return q
}

func BenchmarkEvalQuality(b *testing.B) {
	h, a, prev := paperAssignments(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalQuality(h, a, h, prev, 0)
	}
}

func BenchmarkEvalQualityReference(b *testing.B) {
	h, a, prev := paperAssignments(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceEvalQuality(h, a, h, prev, 0)
	}
}

func BenchmarkBuildCommPlan(b *testing.B) {
	h, a, _ := paperAssignments(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCommPlan(h, a)
	}
}

func BenchmarkBuildCommPlanReference(b *testing.B) {
	h, a, _ := paperAssignments(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceCommunication(h, a)
	}
}

// BenchmarkMigrationFrom measures the steady-state regrid cost of the
// migration component: both plans already exist (the previous cycle kept
// its plan), so only the diff sweep runs.
func BenchmarkMigrationFrom(b *testing.B) {
	h, a, prev := paperAssignments(b)
	plan := BuildCommPlan(h, a)
	prevPlan := BuildCommPlan(h, prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.MigrationFrom(prevPlan)
	}
}

func BenchmarkMigrationFractionReference(b *testing.B) {
	h, a, prev := paperAssignments(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceMigrationFraction(h, prev, h, a)
	}
}
