package partition

import (
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/samr"
)

// flatHierarchy is a single-level hierarchy over the given extents.
func flatHierarchy(t testing.TB, nx, ny, nz int) *samr.Hierarchy {
	t.Helper()
	h, err := samr.NewHierarchy(samr.MakeBox(nx, ny, nz), 2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// manualAssignment builds an assignment directly from (box, owner) pairs on
// level 0.
func manualAssignment(nprocs int, pairs ...struct {
	b samr.Box
	o int
}) *Assignment {
	a := &Assignment{NProcs: nprocs}
	for _, p := range pairs {
		a.Units = append(a.Units, Unit{Level: 0, Box: p.b, Weight: float64(p.b.Volume())})
		a.Owner = append(a.Owner, p.o)
	}
	return a
}

type pair = struct {
	b samr.Box
	o int
}

func TestCommVolumeTwoHalves(t *testing.T) {
	// An 8x4x4 domain split into two 4x4x4 halves: the dividing plane has
	// 16 faces.
	h := flatHierarchy(t, 8, 4, 4)
	a := manualAssignment(2,
		pair{samr.MakeBox(4, 4, 4), 0},
		pair{samr.Box{Lo: samr.Point{4, 0, 0}, Hi: samr.Point{8, 4, 4}}, 1},
	)
	st := BuildCommPlan(h, a).Stats
	total, perProc := st.Volume, st.PerProcVolume
	if total != 16 {
		t.Fatalf("comm volume = %g, want 16", total)
	}
	if perProc[0] != 16 || perProc[1] != 16 {
		t.Fatalf("per-proc comm = %v", perProc)
	}
}

func TestCommVolumeSameOwnerIsZero(t *testing.T) {
	h := flatHierarchy(t, 8, 4, 4)
	a := manualAssignment(2,
		pair{samr.MakeBox(4, 4, 4), 0},
		pair{samr.Box{Lo: samr.Point{4, 0, 0}, Hi: samr.Point{8, 4, 4}}, 0},
	)
	if total := BuildCommPlan(h, a).Stats.Volume; total != 0 {
		t.Fatalf("same-owner comm = %g", total)
	}
}

func TestCommVolumeInterLevel(t *testing.T) {
	// A level-1 patch whose coarse parent belongs to another processor
	// contributes interLevelWeight per fine cell.
	h := flatHierarchy(t, 8, 4, 4)
	if err := h.SetLevel(1, []samr.Box{{Lo: samr.Point{0, 0, 0}, Hi: samr.Point{4, 4, 4}}}); err != nil {
		t.Fatal(err)
	}
	a := &Assignment{
		NProcs: 2,
		Units: []Unit{
			{Level: 0, Box: samr.MakeBox(8, 4, 4), Weight: 1},
			{Level: 1, Box: samr.Box{Lo: samr.Point{0, 0, 0}, Hi: samr.Point{4, 4, 4}}, Weight: 1},
		},
		Owner: []int{0, 1},
	}
	st := BuildCommPlan(h, a).Stats
	total, perProc := st.Volume, st.PerProcVolume
	// 4*4*4 fine cells with proc-0 parents, exchanged on each of the fine
	// level's Ratio=2 MIT sub-steps per coarse step.
	want := interLevelWeight * 64 * 2
	if total != want {
		t.Fatalf("inter-level comm = %g, want %g", total, want)
	}
	if perProc[0] != want || perProc[1] != want {
		t.Fatalf("per-proc inter-level comm = %v", perProc)
	}
}

func TestCommunicationMessages(t *testing.T) {
	// Three units in a row owned 0|1|0: two cross-processor unit pairs.
	h := flatHierarchy(t, 12, 4, 4)
	a := manualAssignment(2,
		pair{samr.MakeBox(4, 4, 4), 0},
		pair{samr.Box{Lo: samr.Point{4, 0, 0}, Hi: samr.Point{8, 4, 4}}, 1},
		pair{samr.Box{Lo: samr.Point{8, 0, 0}, Hi: samr.Point{12, 4, 4}}, 0},
	)
	st := BuildCommPlan(h, a).Stats
	if st.Messages != 2 {
		t.Fatalf("messages = %g, want 2", st.Messages)
	}
	if st.Volume != 32 {
		t.Fatalf("volume = %g, want 32", st.Volume)
	}
	if st.PerProcMessages[0] != 2 || st.PerProcMessages[1] != 2 {
		t.Fatalf("per-proc messages = %v", st.PerProcMessages)
	}
	// Same owner everywhere: no messages at all.
	b := manualAssignment(2,
		pair{samr.MakeBox(4, 4, 4), 1},
		pair{samr.Box{Lo: samr.Point{4, 0, 0}, Hi: samr.Point{8, 4, 4}}, 1},
		pair{samr.Box{Lo: samr.Point{8, 0, 0}, Hi: samr.Point{12, 4, 4}}, 1},
	)
	if st := BuildCommPlan(h, b).Stats; st.Messages != 0 || st.Volume != 0 {
		t.Fatalf("same-owner stats = %+v", st)
	}
}

func TestMigrationFraction(t *testing.T) {
	h := flatHierarchy(t, 8, 4, 4)
	left := samr.MakeBox(4, 4, 4)
	right := samr.Box{Lo: samr.Point{4, 0, 0}, Hi: samr.Point{8, 4, 4}}
	before := manualAssignment(2, pair{left, 0}, pair{right, 1})
	// Swap the halves: every cell moves.
	after := manualAssignment(2, pair{left, 1}, pair{right, 0})
	if got := BuildCommPlan(h, after).MigrationFrom(BuildCommPlan(h, before)); got != 1 {
		t.Fatalf("full swap migration = %g", got)
	}
	// Identical assignment: nothing moves.
	if got := BuildCommPlan(h, before).MigrationFrom(BuildCommPlan(h, before)); got != 0 {
		t.Fatalf("identity migration = %g", got)
	}
	// Shift the boundary by one plane: 16 of 128 cells move.
	shifted := manualAssignment(2,
		pair{samr.MakeBox(5, 4, 4), 0},
		pair{samr.Box{Lo: samr.Point{5, 0, 0}, Hi: samr.Point{8, 4, 4}}, 1},
	)
	if got := BuildCommPlan(h, shifted).MigrationFrom(BuildCommPlan(h, before)); got != 16.0/128.0 {
		t.Fatalf("boundary shift migration = %g, want %g", got, 16.0/128.0)
	}
}

func TestMigrationIgnoresDisjointLevels(t *testing.T) {
	// Data on a level present only in the new hierarchy does not count.
	h0 := flatHierarchy(t, 8, 4, 4)
	h1 := flatHierarchy(t, 8, 4, 4)
	if err := h1.SetLevel(1, []samr.Box{{Lo: samr.Point{0, 0, 0}, Hi: samr.Point{4, 4, 4}}}); err != nil {
		t.Fatal(err)
	}
	before := manualAssignment(2, pair{samr.MakeBox(8, 4, 4), 0})
	after := &Assignment{
		NProcs: 2,
		Units: []Unit{
			{Level: 0, Box: samr.MakeBox(8, 4, 4), Weight: 1},
			{Level: 1, Box: samr.Box{Lo: samr.Point{0, 0, 0}, Hi: samr.Point{4, 4, 4}}, Weight: 1},
		},
		Owner: []int{0, 1},
	}
	if got := BuildCommPlan(h1, after).MigrationFrom(BuildCommPlan(h0, before)); got != 0 {
		t.Fatalf("new-level migration = %g", got)
	}
}

func TestEvalQuality(t *testing.T) {
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a, err := (GMISPSP{}).Partition(h, wm, 8)
	if err != nil {
		t.Fatal(err)
	}
	q := EvalQuality(h, a, nil, nil, 5*time.Millisecond)
	if q.CommVolume <= 0 {
		t.Error("comm volume should be positive for 8 procs")
	}
	if q.Imbalance < 0 {
		t.Error("negative imbalance")
	}
	if q.Migration != 0 {
		t.Error("migration without previous assignment should be 0")
	}
	if q.PartitionTime != 5*time.Millisecond {
		t.Error("partition time not recorded")
	}
	if q.Overhead < 1 {
		t.Errorf("overhead = %g, want >= 1 (at least one unit per box)", q.Overhead)
	}

	// With a previous assignment, migration is measured.
	b, err := (PBDISP{}).Partition(h, wm, 8)
	if err != nil {
		t.Fatal(err)
	}
	q2 := EvalQuality(h, b, h, a, 0)
	if q2.Migration < 0 || q2.Migration > 1 {
		t.Fatalf("migration = %g outside [0,1]", q2.Migration)
	}
}

func TestCommVolumeScalesWithProcs(t *testing.T) {
	// More processors => more boundary.
	h := testHierarchy(t)
	wm := samr.UniformWorkModel{}
	a4, _ := (SFC{}).Partition(h, wm, 4)
	a32, _ := (SFC{}).Partition(h, wm, 32)
	c4 := BuildCommPlan(h, a4).Stats.Volume
	c32 := BuildCommPlan(h, a32).Stats.Volume
	if c32 <= c4 {
		t.Fatalf("comm at 32 procs (%g) not above 4 procs (%g)", c32, c4)
	}
}

func BenchmarkPartitionSuite(b *testing.B) {
	h := testHierarchy(b)
	wm := samr.UniformWorkModel{}
	for _, p := range All() {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Partition(h, wm, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
