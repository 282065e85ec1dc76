package scenario

import (
	"runtime/debug"
	"testing"
)

// TestWorkModelReusesGenerators pins the drivers' allocations: a driver's
// Features allocates only the features it returns, and Spec.WorkModel on a
// one-driver phase allocates 4 objects (the driver's features, their
// union, the fronts and the model). Each driver seeded a fresh
// rand.NewSource, about 4.9 KB and one object more, at every snapshot
// generated and every regrid weighed; a driver that does so again fails
// here. The collector is held off while counting, as a collection empties
// the generator pool.
func TestWorkModelReusesGenerators(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled generators at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	env := Env{Nx: 64, Ny: 32, Nz: 32}
	for _, d := range []Driver{
		Sheet(Low), Sheet(High), SheetField(4, Low), SheetField(4, High),
		Block(Low), Block(High), BlobField(4, Low), BlobField(4, High),
		PointSource(Low), PointSource(High), MergingFronts(), Background(3),
	} {
		if got := testing.AllocsPerRun(20, func() { d.Features(5, env, 77) }); got != 1 {
			t.Errorf("%s: Features allocates %.0f objects, want 1", d.Name(), got)
		}
	}
	spec := RandomSpec(1000)
	for idx := range spec.TotalSnapshots() {
		if pi, _ := spec.PhaseAt(idx); len(spec.Phases[pi].Drivers) != 1 {
			t.Fatalf("snapshot %d: phase %d has %d drivers, want 1", idx, pi, len(spec.Phases[pi].Drivers))
		}
		if got := testing.AllocsPerRun(20, func() { spec.WorkModel(idx) }); got != 4 {
			t.Fatalf("snapshot %d: WorkModel allocates %.0f objects, want 4", idx, got)
		}
	}
}

// BenchmarkGenerateCorpus generates the traces of 48 corpus specs, the
// size of the corpus a served benchmark submits.
func BenchmarkGenerateCorpus(b *testing.B) {
	specs := Corpus(1, 48)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := s.Generate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
