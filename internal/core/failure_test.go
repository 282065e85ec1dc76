package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

func TestFailureAwareSurvivesNodeLoss(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	// First measure a healthy run to locate mid-run time.
	healthy, err := Run(tr, &FailureAware{Inner: Static{P: partition.GMISPSP{}}},
		RunConfig{Machine: machine, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(healthy.TotalTime, 1) {
		t.Fatal("healthy run infinite")
	}

	// Kill two nodes mid-interval, so the run must recover inside an
	// interval, not only re-partition at the next regrid.
	ft := &FailureAware{Inner: Static{P: partition.GMISPSP{}}}
	res, err := Run(tr, ft, RunConfig{Machine: nodeLoss(healthy.TotalTime), NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.TotalTime, 1) || math.IsNaN(res.TotalTime) {
		t.Fatal("fault-tolerant run did not complete")
	}
	if ft.FailuresSeen == 0 {
		t.Fatal("failures never detected")
	}
	if res.Recoveries < 1 {
		t.Fatalf("Recoveries = %d: no failure landed mid-interval", res.Recoveries)
	}
	// Losing a quarter of the machine must cost time, but bounded: the
	// survivors absorb the work.
	if res.TotalTime <= healthy.TotalTime {
		t.Fatalf("run with failures (%.2fs) not slower than healthy (%.2fs)",
			res.TotalTime, healthy.TotalTime)
	}
	if res.TotalTime > healthy.TotalTime*3 {
		t.Fatalf("run with failures (%.2fs) blew up vs healthy (%.2fs)",
			res.TotalTime, healthy.TotalTime)
	}
	if res.Strategy != "G-MISP+SP+ft" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
}

func TestWithoutFailureAwarenessDeadNodeStallsRun(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(4, 1e5, 512, 100)
	machine.Fail(1, 0.1)
	res, err := Run(tr, Static{P: partition.GMISPSP{}}, RunConfig{Machine: machine, NProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The naive strategy keeps assigning work to the dead node: the
	// simulated run never finishes, and the result says so loudly.
	if !math.IsInf(res.TotalTime, 1) {
		t.Fatalf("dead node did not stall the naive run: %.2fs", res.TotalTime)
	}
}

func TestFailureAwareAllNodesDead(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(2, 1e5, 512, 100)
	machine.Fail(0, 0)
	machine.Fail(1, 0)
	ft := &FailureAware{Inner: Static{P: partition.SFC{}}}
	if _, err := Run(tr, ft, RunConfig{Machine: machine, NProcs: 2}); err == nil {
		t.Fatal("run with zero live nodes succeeded")
	}
}

func TestClusterAliveBookkeeping(t *testing.T) {
	c := cluster.Homogeneous(4, 1e5, 512, 100)
	c.Fail(2, 10)
	if !c.Alive(2, 9.99) {
		t.Error("node dead before failure time")
	}
	if c.Alive(2, 10) {
		t.Error("node alive at failure time")
	}
	if c.Alive(-1, 0) || c.Alive(99, 0) {
		t.Error("out-of-range nodes alive")
	}
	alive := c.AliveNodes(20)
	if len(alive) != 3 || alive[0] != 0 || alive[1] != 1 || alive[2] != 3 {
		t.Errorf("alive = %v", alive)
	}
	if got := c.EffectiveSpeed(2, 20); got != 0 {
		t.Errorf("dead node speed = %g", got)
	}
}

// TestFailureAwareSurvivorRemapOwners drives Assign directly at a time
// when nodes are down and checks the remap invariants: every owner is a
// live machine node, dead nodes carry zero work, and all work is conserved.
func TestFailureAwareSurvivorRemapOwners(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	machine.Fail(1, 5)
	machine.Fail(6, 5)
	ft := &FailureAware{Inner: Static{P: partition.GMISPSP{}}}
	snap := tr.Snapshots[0]
	ctx := &StepContext{
		Index: 0, Trace: tr, Snap: snap, WM: samr.UniformWorkModel{},
		NProcs: 8, SimTime: 10, Machine: machine,
	}
	a, label, err := ft.Assign(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if label != "G-MISP+SP+ft" {
		t.Errorf("label = %q, want G-MISP+SP+ft", label)
	}
	if a.NProcs != 8 {
		t.Fatalf("remapped NProcs = %d, want the full machine width 8", a.NProcs)
	}
	alive := map[int]bool{}
	for _, n := range machine.AliveNodes(10) {
		alive[n] = true
	}
	for i, o := range a.Owner {
		if !alive[o] {
			t.Fatalf("unit %d assigned to dead node %d", i, o)
		}
	}
	work := a.Work()
	if work[1] != 0 || work[6] != 0 {
		t.Errorf("dead nodes carry work: node1=%g node6=%g", work[1], work[6])
	}
	var total float64
	for _, w := range work {
		total += w
	}
	if diff := total - a.TotalWeight(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("work not conserved: %g vs %g", total, a.TotalWeight())
	}
	if ft.FailuresSeen != 1 {
		t.Errorf("FailuresSeen = %d, want 1", ft.FailuresSeen)
	}
}

// TestFailureAwareZeroAliveNodes exercises the error path where the whole
// machine is gone by the time a regrid fires.
func TestFailureAwareZeroAliveNodes(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(2, 1e5, 512, 100)
	machine.Fail(0, 3)
	machine.Fail(1, 3)
	ft := &FailureAware{Inner: Static{P: partition.GMISPSP{}}}
	ctx := &StepContext{
		Index: 0, Trace: tr, Snap: tr.Snapshots[0], WM: samr.UniformWorkModel{},
		NProcs: 2, SimTime: 99, Machine: machine,
	}
	if _, _, err := ft.Assign(ctx); err == nil {
		t.Fatal("assign with zero live nodes succeeded")
	}
}

// capsProbe runs a SystemSensitive and records, at every Assign, the
// machine nodes the processors ran on, every node's reading and the
// capacities the partition used.
type capsProbe struct {
	s     *SystemSensitive
	calls []capsCall
}

type capsCall struct {
	nodes  []int
	row    []monitor.Reading
	caps   []float64
	nprocs int // the assignment's
}

func (p *capsProbe) Name() string { return p.s.Name() }

func (p *capsProbe) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	a, label, err := p.s.Assign(ctx)
	if err != nil {
		return nil, "", err
	}
	row := monitor.ClusterSensor{Cluster: ctx.Machine}.Sample(ctx.SimTime)
	p.calls = append(p.calls, capsCall{nodes: ctx.Nodes, row: row, caps: p.s.Capacities(), nprocs: a.NProcs})
	return a, label, nil
}

// TestFailureAwareCapacityStrategies: FailureAware over a capacity
// strategy partitions across the survivors by their own nodes' readings,
// whether capacities are computed once, at every regrid, or forecast.
// Node 2 fails a third of the way into the healthy run; from then on each
// survivor's capacity must be what the capacity calculator makes of the
// survivors' readings, in survivor order, and the work must be split
// across the survivors alone. Forecasting, every regrid's capacities,
// before the failure too, must be the replay oracle's over every sample
// so far.
func TestFailureAwareCapacityStrategies(t *testing.T) {
	tr := testTrace(t)
	survivors := []int{0, 1, 3, 4, 5, 6, 7}
	pick := func(row []monitor.Reading) []monitor.Reading {
		out := make([]monitor.Reading, len(survivors))
		for p, k := range survivors {
			out[p] = row[k]
		}
		return out
	}
	for _, tc := range []struct {
		name string
		cfg  SystemSensitive
	}{
		{"once", SystemSensitive{}},
		{"every", SystemSensitive{RecalibrateEvery: 1}},
		{"forecast", SystemSensitive{RecalibrateEvery: 1, Forecast: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			healthyStrat := tc.cfg
			healthy, err := Run(tr, &FailureAware{Inner: &healthyStrat}, RunConfig{Machine: cluster.LinuxCluster(8, 2002), NProcs: 8})
			if err != nil {
				t.Fatal(err)
			}
			machine := cluster.LinuxCluster(8, 2002)
			machine.Fail(2, healthy.TotalTime/3)
			strat := tc.cfg
			probe := &capsProbe{s: &strat}
			res, err := Run(tr, &FailureAware{Inner: probe}, RunConfig{Machine: machine, NProcs: 8})
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(res.TotalTime, 1) || math.IsNaN(res.TotalTime) {
				t.Fatalf("run did not complete: %v", res.TotalTime)
			}
			var want []float64
			var rows [][]monitor.Reading
			failed := 0
			for k, c := range probe.calls {
				rows = append(rows, c.row)
				if c.nodes == nil {
					if failed > 0 {
						t.Fatalf("call %d: the whole machine again after the failure", k)
					}
					if tc.cfg.Forecast {
						want, err := replayCapacities(rows, []int{0, 1, 2, 3, 4, 5, 6, 7})
						if err != nil || !slices.Equal(c.caps, want) {
							t.Fatalf("call %d: capacities %v, replay %v (%v)", k, c.caps, want, err)
						}
					}
					continue
				}
				if !slices.Equal(c.nodes, survivors) || c.nprocs != len(survivors) {
					t.Fatalf("call %d: %d processors on nodes %v, want %d on %v", k, c.nprocs, c.nodes, len(survivors), survivors)
				}
				switch {
				case tc.cfg.Forecast:
					want, err = replayCapacities(rows, survivors)
				case tc.cfg.RecalibrateEvery == 1 || failed == 0:
					want, err = monitor.Capacities(pick(c.row), monitor.DefaultWeights())
				}
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(c.caps, want) {
					t.Fatalf("call %d: capacities %v, want the survivors' %v", k, c.caps, want)
				}
				failed++
			}
			if failed == 0 {
				t.Fatal("the failure never reached the strategy")
			}
		})
	}
}

// TestFailureAwareForwardsDegradedCount: wrapping an agent-managed
// strategy whose control network is down must not hide its degraded
// regrids from the run's result or from its checkpoint.
func TestFailureAwareForwardsDegradedCount(t *testing.T) {
	tr := testTrace(t)
	am, err := NewAgentManaged(8, 25)
	if err != nil {
		t.Fatal(err)
	}
	am.Health = func() bool { return false }
	dir := t.TempDir()
	res, err := Run(tr, &FailureAware{Inner: am}, RunConfig{
		Machine: cluster.Homogeneous(8, 1e5, 512, 100), NProcs: 8, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(tr.Snapshots)
	if am.DegradedRegrids != want || res.DegradedRegrids != want {
		t.Fatalf("degraded regrids: inner %d, RunResult %d, want %d", am.DegradedRegrids, res.DegradedRegrids, want)
	}
	ck, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every regrid before the last boundary ran degraded.
	if ck.Degraded != ck.Next {
		t.Fatalf("checkpointed Degraded = %d, want %d", ck.Degraded, ck.Next)
	}
}

// TestFailureSearch runs five strategies under FailureAware on SP2 and
// LinuxCluster machines of exactly eight nodes and of ten, eight of which
// the run uses, under six failure schedules. Every run must finish, and a
// run crashed at any of five points must resume to the uninterrupted
// result.
func TestFailureSearch(t *testing.T) {
	tr := testTrace(t)
	n := len(tr.Snapshots)
	agentManaged := func() Strategy {
		am, err := NewAgentManaged(8, 25)
		if err != nil {
			t.Fatal(err)
		}
		return am
	}
	inners := []struct {
		name string
		mk   func() Strategy
	}{
		{"static", func() Strategy { return Static{P: partition.GMISPSP{}} }},
		{"adaptive", func() Strategy { return Adaptive{ImbalanceGuard: 20} }},
		{"system-sensitive", func() Strategy { return &SystemSensitive{RecalibrateEvery: 3} }},
		{"proactive", func() Strategy { return &SystemSensitive{RecalibrateEvery: 1, Forecast: true} }},
		{"agent-managed", agentManaged},
	}
	machines := []struct {
		name string
		mk   func(nodes int) *cluster.Cluster
	}{
		{"sp2", cluster.SP2},
		{"linux", func(nodes int) *cluster.Cluster { return cluster.LinuxCluster(nodes, 2002) }},
	}
	// Failures are (node, time in s). The healthy runs take 43-84 s, so a
	// loss after 0 s lands inside a regrid interval and is recovered from
	// there. Node 8 exists only on the ten-node machines, as a spare.
	schedules := []struct {
		name     string
		failures []cluster.Failure
	}{
		{"node-0-at-start", []cluster.Failure{{Node: 0, At: 0}}},
		{"node-1-at-20s", []cluster.Failure{{Node: 1, At: 20}}},
		{"node-3-at-7.3s", []cluster.Failure{{Node: 3, At: 7.3}}},
		{"two-nodes", []cluster.Failure{{Node: 1, At: 5}, {Node: 3, At: 15}}},
		{"six-of-ten", []cluster.Failure{{Node: 1, At: 2}, {Node: 2, At: 4}, {Node: 3, At: 6}, {Node: 4, At: 8}, {Node: 5, At: 10}, {Node: 6, At: 12}}},
		{"spare-then-last", []cluster.Failure{{Node: 8, At: 1}, {Node: 7, At: 10}}},
	}
	points := []int{1, n / 4, n / 2, 3 * n / 4, n - 1}
	var recoveries atomic.Int64
	t.Run("cases", func(t *testing.T) {
		for _, in := range inners {
			for _, m := range machines {
				for _, nodes := range []int{8, 10} {
					for _, s := range schedules {
						t.Run(fmt.Sprintf("%s/%s-%d/%s", in.name, m.name, nodes, s.name), func(t *testing.T) {
							t.Parallel()
							cfg := func() RunConfig {
								c := m.mk(nodes)
								c.Failures = s.failures
								return RunConfig{Machine: c, NProcs: 8, WorkModel: rm3d.SmallConfig().WorkModel}
							}
							strat := func() Strategy { return &FailureAware{Inner: in.mk()} }
							res := requireResumes(t, tr, strat, cfg, points)
							if math.IsInf(res.TotalTime, 0) || math.IsNaN(res.TotalTime) {
								t.Fatalf("TotalTime = %g", res.TotalTime)
							}
							recoveries.Add(int64(res.Recoveries))
						})
					}
				}
			}
		}
	})
	if !t.Failed() && recoveries.Load() == 0 {
		t.Fatal("no case recovered mid-interval")
	}
}
