package core

import (
	"sync"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

var smallTrace = struct {
	once sync.Once
	tr   *samr.Trace
	err  error
}{}

func testTrace(t testing.TB) *samr.Trace {
	t.Helper()
	smallTrace.once.Do(func() {
		smallTrace.tr, smallTrace.err = rm3d.GenerateTrace(rm3d.SmallConfig())
	})
	if smallTrace.err != nil {
		t.Fatal(smallTrace.err)
	}
	return smallTrace.tr
}

// generatePaperTrace generates the paper's RM3D trace once per test binary.
var generatePaperTrace = sync.OnceValues(func() (*samr.Trace, error) {
	return rm3d.GenerateTrace(rm3d.DefaultConfig())
})

// paperTrace returns the trace of the paper's configuration (202 regrids).
func paperTrace(t testing.TB) *samr.Trace {
	t.Helper()
	tr, err := generatePaperTrace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMetaPartitionerSelectForOctant(t *testing.T) {
	m := NewMetaPartitioner()
	want := map[octant.Octant]string{
		octant.I:    "pBD-ISP",
		octant.II:   "pBD-ISP",
		octant.III:  "G-MISP+SP",
		octant.IV:   "G-MISP+SP",
		octant.V:    "pBD-ISP",
		octant.VI:   "pBD-ISP",
		octant.VII:  "G-MISP+SP",
		octant.VIII: "G-MISP+SP",
	}
	for o, name := range want {
		p, err := m.SelectForOctant(o)
		if err != nil {
			t.Fatalf("octant %v: %v", o, err)
		}
		if p.Name() != name {
			t.Errorf("octant %v selects %s, want %s", o, p.Name(), name)
		}
	}
	if _, err := m.SelectForOctant(octant.Octant(0)); err == nil {
		t.Error("invalid octant accepted")
	}
}

// TestTable3PartitionerColumn verifies the meta-partitioner reproduces the
// partitioner column of the paper's Table 3 on the full RM3D trace.
func TestTable3PartitionerColumn(t *testing.T) {
	tr := paperTrace(t)
	m := NewMetaPartitioner()
	want := map[int]struct {
		oct  octant.Octant
		part string
	}{
		0:   {octant.IV, "G-MISP+SP"},
		5:   {octant.VII, "G-MISP+SP"},
		25:  {octant.I, "pBD-ISP"},
		106: {octant.VI, "pBD-ISP"},
		137: {octant.VIII, "G-MISP+SP"},
		162: {octant.II, "pBD-ISP"},
		174: {octant.V, "pBD-ISP"},
		201: {octant.III, "G-MISP+SP"},
	}
	for idx, w := range want {
		p, o, err := m.SelectAt(tr, idx)
		if err != nil {
			t.Fatalf("time-step %d: %v", idx, err)
		}
		if o != w.oct || p.Name() != w.part {
			t.Errorf("time-step %d: (%v, %s), paper reports (%v, %s)",
				idx, o, p.Name(), w.oct, w.part)
		}
	}
}

func TestStaticStrategy(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(16, 1e6, 512, 100)
	res, err := Run(tr, Static{P: partition.SFC{}}, RunConfig{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "SFC" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	if res.Steps != len(tr.Snapshots)*tr.RegridEvery {
		t.Fatalf("steps = %d", res.Steps)
	}
	if res.Switches != 0 {
		t.Fatalf("static strategy switched %d times", res.Switches)
	}
	if res.AMREfficiency < 80 {
		t.Fatalf("AMR efficiency = %.1f%%", res.AMREfficiency)
	}
	if len(res.Snapshots) != len(tr.Snapshots) {
		t.Fatalf("snapshot stats = %d", len(res.Snapshots))
	}
}

func TestAdaptiveStrategySwitches(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(16, 1e6, 512, 100)
	res, err := Run(tr, Adaptive{}, RunConfig{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("adaptive strategy never switched partitioners on the RM3D trace")
	}
	names := map[string]bool{}
	for _, s := range res.Snapshots {
		names[s.Partitioner] = true
	}
	if !names["pBD-ISP"] || !names["G-MISP+SP"] {
		t.Fatalf("adaptive used %v, want both pBD-ISP and G-MISP+SP", names)
	}
}

func TestSystemSensitiveBeatsDefaultOnLoadedCluster(t *testing.T) {
	// The Table 5 effect in miniature: on a heterogeneously loaded cluster
	// the capacity-weighted partitioner outruns equal distribution.
	tr := testTrace(t)
	machine := cluster.LinuxCluster(16, 99)
	def, err := Run(tr, Static{P: partition.EqualBlock{}}, RunConfig{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Run(tr, &SystemSensitive{}, RunConfig{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalTime >= def.TotalTime {
		t.Fatalf("system-sensitive %.2fs not faster than default %.2fs", ss.TotalTime, def.TotalTime)
	}
}

func TestSystemSensitiveCapacitiesComputedOnce(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.LinuxCluster(8, 3)
	s := &SystemSensitive{}
	ctx := &StepContext{
		Index: 0, Trace: tr, Snap: tr.Snapshots[0],
		WM: samr.UniformWorkModel{}, NProcs: 8, Machine: machine,
	}
	if _, _, err := s.Assign(ctx); err != nil {
		t.Fatal(err)
	}
	caps0 := append([]float64(nil), s.caps...)
	// Later assignment at a different sim time must reuse the capacities.
	ctx2 := *ctx
	ctx2.Index = 5
	ctx2.Snap = tr.Snapshots[5]
	ctx2.simTime = 1e4
	if _, _, err := s.Assign(&ctx2); err != nil {
		t.Fatal(err)
	}
	for i := range caps0 {
		if s.caps[i] != caps0[i] {
			t.Fatal("capacities recomputed despite RecalibrateEvery=0")
		}
	}
	// With RecalibrateEvery they refresh.
	s2 := &SystemSensitive{RecalibrateEvery: 1, Weights: monitor.Weights{CPU: 1}}
	if _, _, err := s2.Assign(ctx); err != nil {
		t.Fatal(err)
	}
	caps1 := append([]float64(nil), s2.caps...)
	ctx3 := *ctx
	ctx3.Index = 1
	ctx3.simTime = 50 // synthetic load varies over time
	if _, _, err := s2.Assign(&ctx3); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range caps1 {
		if s2.caps[i] != caps1[i] {
			same = false
		}
	}
	if same {
		t.Fatal("capacities identical after recalibration under varying load")
	}
}

func TestRunValidation(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(4, 1e6, 512, 100)
	if _, err := Run(nil, Static{P: partition.SFC{}}, RunConfig{Machine: machine}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Run(tr, Static{P: partition.SFC{}}, RunConfig{}); err == nil {
		t.Error("missing machine accepted")
	}
	if _, err := Run(tr, Static{P: partition.SFC{}}, RunConfig{Machine: machine, NProcs: 99}); err == nil {
		t.Error("nprocs above machine size accepted")
	}
}

func TestRunAccumulatesOverheads(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e6, 512, 100)
	res, err := Run(tr, Static{P: partition.SPISP{}}, RunConfig{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionTime <= 0 {
		t.Error("no partitioning time accumulated")
	}
	if res.MigrationTime <= 0 {
		t.Error("no migration time accumulated (trace features move)")
	}
	if res.MaxImbalance < res.AvgImbalance {
		t.Error("max imbalance below average")
	}
	// Total includes overheads plus step times.
	var stepSum float64
	for _, s := range res.Snapshots {
		stepSum += s.StepTime
	}
	if res.TotalTime <= stepSum {
		t.Error("total time should exceed pure step time by the overheads")
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.LinuxCluster(8, 42)
	a, err := Run(tr, Static{P: partition.GMISPSP{}}, RunConfig{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, Static{P: partition.GMISPSP{}}, RunConfig{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime || a.MaxImbalance != b.MaxImbalance {
		t.Fatalf("replay not deterministic: %v vs %v", a.TotalTime, b.TotalTime)
	}
}
