package cluster

import (
	"math"
	"testing"
)

func TestHomogeneousConstruction(t *testing.T) {
	c := Homogeneous(64, 1e6, 1024, 100)
	if c.NProcs() != 64 {
		t.Fatalf("nprocs = %d", c.NProcs())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range c.Nodes {
		if c.EffectiveSpeed(i, 0) != 1e6 {
			t.Fatalf("node %d effective speed %g without load", i, c.EffectiveSpeed(i, 0))
		}
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	if err := (&Cluster{}).Validate(); err == nil {
		t.Error("empty cluster accepted")
	}
	c := Homogeneous(2, 1e6, 512, 100)
	c.Nodes[1].Speed = 0
	if err := c.Validate(); err == nil {
		t.Error("zero-speed node accepted")
	}
	c = Homogeneous(2, 1e6, 512, 100)
	c.Nodes[0].BandwidthMBps = -1
	if err := c.Validate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
	c = Homogeneous(2, 1e6, 512, 100)
	c.Net.BisectionMBps = 0
	if err := c.Validate(); err == nil {
		t.Error("zero bisection accepted")
	}
}

func TestEffectiveSpeedUnderLoad(t *testing.T) {
	c := Homogeneous(2, 1000, 512, 100)
	c.Load = ConstantLoad{0.5, 0}
	if got := c.EffectiveSpeed(0, 10); got != 500 {
		t.Fatalf("loaded speed = %g, want 500", got)
	}
	if got := c.EffectiveSpeed(1, 10); got != 1000 {
		t.Fatalf("idle speed = %g, want 1000", got)
	}
	// Loads are clamped below 1 so speed never hits zero.
	c.Load = ConstantLoad{2.0, 0}
	if got := c.EffectiveSpeed(0, 0); got < 1000*0.05-1e-9 {
		t.Fatalf("overloaded speed = %g, want clamped", got)
	}
}

func TestStepBSPSemantics(t *testing.T) {
	c := Homogeneous(4, 1000, 512, 100) // 100 MB/s, 25 us latency
	cost := CostModel{SecondsPerWork: 1, BytesPerFace: 100, BytesPerCell: 80}
	work := []float64{1000, 2000, 500, 500} // seconds = work/1000
	vol := []float64{0, 0, 1e6, 0}          // 1e6 faces * 100 B = 100 MB -> 1 s
	msgs := []float64{0, 0, 0, 40000}       // 40000 * 25 us = 1 s
	sc := c.Step(work, vol, msgs, 0, cost)
	if math.Abs(sc.Compute-2.0) > 1e-9 {
		t.Fatalf("compute = %g, want 2", sc.Compute)
	}
	if math.Abs(sc.Comm-1.0) > 1e-9 {
		t.Fatalf("comm = %g, want 1", sc.Comm)
	}
	// Total is the max of per-proc compute+comm sums: proc1 has 2+0,
	// proc2 has 0.5+1, proc3 has 0.5+1 -> max 2.
	if math.Abs(sc.Total-2.0) > 1e-9 {
		t.Fatalf("total = %g, want 2", sc.Total)
	}
}

func TestStepSlowNodeDominates(t *testing.T) {
	c := Homogeneous(2, 1000, 512, 100)
	c.Load = ConstantLoad{0.5, 0}
	cost := DefaultCostModel()
	work := []float64{1000, 1000}
	fast := c.Step(work, nil, nil, 0, cost)
	// Node 0 at half speed takes 2 s; node 1 takes 1 s.
	if math.Abs(fast.Total-2.0) > 1e-9 {
		t.Fatalf("loaded step = %g, want 2", fast.Total)
	}
}

func TestMigrationTime(t *testing.T) {
	c := Homogeneous(4, 1000, 512, 100)
	c.Net.BisectionMBps = 100
	cost := CostModel{BytesPerCell: 100}
	// 1e6 cells * 100 B = 100 MB over 100 MB/s = 1 s.
	if got := c.MigrationTime(1e6, cost); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("migration time = %g, want 1", got)
	}
	if c.MigrationTime(0, cost) != 0 || c.MigrationTime(-5, cost) != 0 {
		t.Fatal("non-positive cell count should cost nothing")
	}
}

func TestSyntheticLoadProperties(t *testing.T) {
	s := NewSyntheticLoad(32, 42)
	for i := 0; i < 32; i++ {
		for _, tt := range []float64{0, 17.3, 250, 10000} {
			l := s.Load(i, tt)
			if l < 0 || l >= 1 {
				t.Fatalf("load(%d,%g) = %g outside [0,1)", i, tt, l)
			}
			if s.Load(i, tt) != l {
				t.Fatal("load not deterministic")
			}
		}
	}
	// Out-of-range nodes are unloaded.
	if s.Load(-1, 0) != 0 || s.Load(99, 0) != 0 {
		t.Fatal("out-of-range node load not zero")
	}
	// Heterogeneity: node loads differ.
	distinct := map[float64]bool{}
	for i := 0; i < 32; i++ {
		distinct[math.Round(s.Load(i, 0)*1e6)] = true
	}
	if len(distinct) < 8 {
		t.Fatalf("only %d distinct loads across 32 nodes", len(distinct))
	}
	// Same seed, same generator.
	s2 := NewSyntheticLoad(32, 42)
	for i := 0; i < 32; i++ {
		if s.Load(i, 5) != s2.Load(i, 5) {
			t.Fatal("same seed produced different loads")
		}
	}
	// Different seed, different loads.
	s3 := NewSyntheticLoad(32, 43)
	same := 0
	for i := 0; i < 32; i++ {
		if s.Load(i, 5) == s3.Load(i, 5) {
			same++
		}
	}
	if same == 32 {
		t.Fatal("different seeds produced identical loads")
	}
}

func TestLinuxClusterShape(t *testing.T) {
	c := LinuxCluster(32, 7)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NProcs() != 32 {
		t.Fatalf("nprocs = %d", c.NProcs())
	}
	if c.Load == nil {
		t.Fatal("Linux cluster must carry a synthetic load generator")
	}
	if c.Nodes[0].BandwidthMBps != 12.5 {
		t.Fatalf("fast Ethernet bandwidth = %g MB/s", c.Nodes[0].BandwidthMBps)
	}
}

func TestSP2Shape(t *testing.T) {
	c := SP2(16)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NProcs() != 16 {
		t.Fatalf("nprocs = %d", c.NProcs())
	}
	if c.Load != nil {
		t.Fatal("the Table 4 machine runs without background load")
	}
	if c.Net.LatencySec != 500e-6 {
		t.Fatalf("latency = %g s, want the calibrated 500 µs", c.Net.LatencySec)
	}
	for i := range c.Nodes {
		if c.EffectiveSpeed(i, 7) != 1e5 {
			t.Fatalf("node %d effective speed %g", i, c.EffectiveSpeed(i, 7))
		}
	}
}
