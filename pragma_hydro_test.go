package pragma

import (
	"bytes"
	"testing"
)

func TestFacadeHydroPipeline(t *testing.T) {
	grid, err := NewHydroGrid(48, 8, 8, 1.0/48, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	SodShockTube(grid)
	trace, err := HydroTrace(grid, 24, 8, 0.4, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Snapshots) != 4 {
		t.Fatalf("snapshots = %d", len(trace.Snapshots))
	}
	// Solver-driven traces work with the full pipeline.
	chars, err := ClassifyTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != 4 {
		t.Fatalf("characterizations = %d", len(chars))
	}
	res, err := Runtime{Trace: trace, Machine: NewCluster(4)}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestFacadeHydroConserved(t *testing.T) {
	s := HydroConserved(1.4, 1, 0, 0, 0, 1)
	if s.Rho != 1 || s.E <= 0 {
		t.Fatalf("conserved = %+v", s)
	}
}

func TestFacadeTraceIO(t *testing.T) {
	trace, err := GenerateRM3D(RM3DSmall())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != len(trace.Snapshots) {
		t.Fatalf("round trip lost snapshots: %d vs %d", len(got.Snapshots), len(trace.Snapshots))
	}
	// A reloaded trace replays identically.
	a, err := Runtime{Trace: trace, Machine: NewCluster(4)}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Runtime{Trace: got, Machine: NewCluster(4)}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime {
		t.Fatalf("reloaded trace replays differently: %g vs %g", a.TotalTime, b.TotalTime)
	}
}
