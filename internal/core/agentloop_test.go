package core

import (
	"slices"
	"testing"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

func TestAgentManagedRepartitionsOnlyOnEvents(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	am, err := NewAgentManaged(8, 25)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, am, RunConfig{Machine: machine, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := repartitions(res)
	if n == 0 {
		t.Fatal("agent-managed never repartitioned")
	}
	if n >= len(tr.Snapshots) {
		t.Fatalf("agent-managed repartitioned at every regrid (%d of %d) — events are not gating",
			n, len(tr.Snapshots))
	}
	// Reprojected intervals appear in the per-snapshot stats.
	if len(res.Snapshots)-n == 0 {
		t.Fatal("no regrid reused the standing assignment")
	}
}

func TestAgentManagedDegradedFallback(t *testing.T) {
	// The control network partitions mid-run: from regrid 2 on, Health
	// reports it down. The strategy must keep completing regrids with the
	// local-only policy instead of erroring out, and account for them.
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	am, err := NewAgentManaged(8, 25)
	if err != nil {
		t.Fatal(err)
	}
	const degradeAt = 2
	partitioned := false
	am.Health = func() bool { return !partitioned }
	res, err := Run(tr, am, RunConfig{
		Machine: machine,
		NProcs:  8,
		WorkModel: func(idx int) samr.WorkModel {
			// Run builds the step context (and thus calls this) before
			// each Assign, so the flip lands before regrid degradeAt.
			if idx >= degradeAt {
				partitioned = true
			}
			return samr.UniformWorkModel{}
		},
	})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	want := len(tr.Snapshots) - degradeAt
	if am.DegradedRegrids != want {
		t.Fatalf("DegradedRegrids = %d, want %d", am.DegradedRegrids, want)
	}
	if res.DegradedRegrids != want {
		t.Fatalf("RunResult.DegradedRegrids = %d, want %d (signal not threaded up)", res.DegradedRegrids, want)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no time accumulated")
	}
	// Each regrid's trace names its octant once, then its decision; a
	// degraded regrid says so first.
	traces := telemetry.DefaultTracer.Traces()
	traces = traces[len(traces)-len(tr.Snapshots):]
	for i, rec := range traces {
		var events, wantEvents []string
		for _, e := range rec.Events {
			events = append(events, e.Name)
		}
		if i >= degradeAt {
			wantEvents = append(wantEvents, "degraded-mode")
		}
		wantEvents = append(wantEvents, "octant-classified")
		if res.Snapshots[i].Partitioner == "reprojected" {
			wantEvents = append(wantEvents, "reprojected")
		} else {
			wantEvents = append(wantEvents, "partitioner-selected")
		}
		if !slices.Equal(events, wantEvents) {
			t.Errorf("regrid %d: trace events %v, want %v", i, events, wantEvents)
		}
	}
}

func TestAgentManagedOnSharedCenterMatchesDefault(t *testing.T) {
	// NewAgentManaged is now sugar over NewAgentManagedOn with every port
	// bound to one in-process center; both must drive a run identically.
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	amA, err := NewAgentManaged(8, 25)
	if err != nil {
		t.Fatal(err)
	}
	center := agents.NewCenter()
	ports := make([]agents.Port, 8)
	for i := range ports {
		ports[i] = center
	}
	amB, err := NewAgentManagedOn(center, ports, 25)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := Run(tr, amA, RunConfig{Machine: machine, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Run(tr, amB, RunConfig{Machine: machine, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resA.TotalTime != resB.TotalTime || repartitions(resA) != repartitions(resB) {
		t.Fatalf("in-process (%.4f, %d) and explicit-port (%.4f, %d) runs diverge",
			resA.TotalTime, repartitions(resA), resB.TotalTime, repartitions(resB))
	}
}

// repartitions counts the regrids of res that did not reproject the
// standing assignment.
func repartitions(res *RunResult) int {
	n := 0
	for _, s := range res.Snapshots {
		if s.Partitioner != "reprojected" {
			n++
		}
	}
	return n
}

func TestAgentManagedValidation(t *testing.T) {
	if _, err := NewAgentManaged(0, 25); err == nil {
		t.Fatal("zero nodes accepted")
	}
	am, err := NewAgentManaged(4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if am.ImbalanceEvent != 25 {
		t.Fatalf("default event threshold = %g", am.ImbalanceEvent)
	}
}

func TestReproject(t *testing.T) {
	// Previous assignment: domain split in two halves across 2 procs.
	h0, err := samr.NewHierarchy(samr.MakeBox(8, 4, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	prev := &partition.Assignment{
		NProcs: 2,
		Units: []partition.Unit{
			{Level: 0, Box: samr.MakeBox(4, 4, 4), Weight: 64},
			{Level: 0, Box: samr.Box{Lo: samr.Point{4, 0, 0}, Hi: samr.Point{8, 4, 4}}, Weight: 64},
		},
		Owner: []int{0, 1},
	}
	// New hierarchy gains a refined level over the right half.
	h1 := h0.Clone()
	if err := h1.SetLevel(1, []samr.Box{{Lo: samr.Point{8, 0, 0}, Hi: samr.Point{16, 8, 8}}}); err != nil {
		t.Fatal(err)
	}
	// Reprojection fails because level 1 had no previous owner.
	if _, ok := reproject(prev, h1, samr.UniformWorkModel{}); ok {
		t.Fatal("reprojection over a new level should fail")
	}
	// Same-depth hierarchy reprojects; the level-0 box spanning both
	// halves goes to the majority owner.
	if a, ok := reproject(prev, h0, samr.UniformWorkModel{}); !ok {
		t.Fatal("reprojection failed")
	} else {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := a.CoversHierarchy(h0); err != nil {
			t.Fatal(err)
		}
		if len(a.Units) != 1 || a.Owner[0] != 0 {
			// The whole domain is one hierarchy box; owners tie at 50/50
			// and the deterministic tie-break picks processor 0.
			t.Fatalf("reprojection = %d units owner %v", len(a.Units), a.Owner)
		}
	}
}

func TestProactiveStrategy(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.LinuxCluster(8, 21)
	res, err := Run(tr, &SystemSensitive{RecalibrateEvery: 1, Forecast: true}, RunConfig{Machine: machine, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "proactive" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no time accumulated")
	}
	// The forecast must also beat the capacity-blind default on a loaded
	// cluster.
	def, err := Run(tr, Static{P: partition.EqualBlock{}}, RunConfig{Machine: machine, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime >= def.TotalTime {
		t.Fatalf("proactive %.2fs not faster than default %.2fs", res.TotalTime, def.TotalTime)
	}
}

// TestProactiveEqualsRecalibrateEveryRegrid pins what the forecast does on
// the simulated cluster: its NWS meta-forecaster never beats LastValue on
// SyntheticLoad, so it partitions on the last reading, exactly as
// SystemSensitive recalibrating at every regrid without it does. A forecaster that
// predicts the load, or a load it can predict, breaks this equality.
func TestProactiveEqualsRecalibrateEveryRegrid(t *testing.T) {
	tr := testTrace(t)
	pro, err := Run(tr, &SystemSensitive{RecalibrateEvery: 1, Forecast: true}, RunConfig{Machine: cluster.LinuxCluster(8, 2002), NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	every, err := Run(tr, &SystemSensitive{RecalibrateEvery: 1}, RunConfig{Machine: cluster.LinuxCluster(8, 2002), NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	every.Strategy = pro.Strategy
	sameResult(t, pro, every)
}
