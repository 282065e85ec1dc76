package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
)

func TestRunSurvivesNodeLoss(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	// First measure a healthy run to locate mid-run time.
	healthy, err := Run(tr, Static{P: partition.GMISPSP{}}, RunConfig{Machine: machine, NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(healthy.TotalTime, 1) {
		t.Fatal("healthy run infinite")
	}

	// Kill two nodes mid-interval, so the run must recover inside an
	// interval, not only re-partition at the next regrid.
	res, err := Run(tr, Static{P: partition.GMISPSP{}}, RunConfig{Machine: nodeLoss(healthy.TotalTime), NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.TotalTime, 1) || math.IsNaN(res.TotalTime) {
		t.Fatal("run with node loss did not complete")
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
}

// TestDeadNodeDoesNotStallRun: a strategy that knows nothing of failures
// still finishes when a node dies, since the run partitions across the
// survivors, in the time the survivors take: 56.013940189353846 s, what
// the same run took when failure handling was a wrapper the caller chose.
func TestDeadNodeDoesNotStallRun(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(4, 1e5, 512, 100)
	machine.Fail(1, 0.1)
	res, err := Run(tr, Static{P: partition.GMISPSP{}}, RunConfig{Machine: machine, NProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime != 56.013940189353846 {
		t.Fatalf("TotalTime = %v, want 56.013940189353846", res.TotalTime)
	}
}

// TestRunAllNodesDead: a run whose processors are all dead fails.
func TestRunAllNodesDead(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(2, 1e5, 512, 100)
	machine.Fail(0, 0)
	machine.Fail(1, 0)
	_, err := Run(tr, Static{P: partition.SFC{}}, RunConfig{Machine: machine, NProcs: 2})
	if err == nil || !strings.Contains(err.Error(), "core: regrid 0: core: no nodes alive at t=0") {
		t.Fatalf("run with zero live nodes: err = %v", err)
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

// TestAssignRemapsOntoSurvivors drives assign directly at a time when
// nodes are down and checks the remap invariants: every owner is a live
// machine node, dead nodes carry zero work, and all work is conserved.
func TestAssignRemapsOntoSurvivors(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(8, 1e5, 512, 100)
	machine.Fail(1, 5)
	machine.Fail(6, 5)
	snap := tr.Snapshots[0]
	ctx := &StepContext{
		Index: 0, Trace: tr, Snap: snap, WM: samr.UniformWorkModel{},
		NProcs: 8, simTime: 10, Machine: machine,
	}
	a, _, err := assign(Static{P: partition.GMISPSP{}}, ctx)
	if err != nil {
		t.Fatal(err)
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
}

// misfit is a strategy whose assignment names one processor more than it
// was asked for.
type misfit struct{}

func (misfit) Name() string { return "misfit" }

func (misfit) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	a, err := (partition.GMISPSP{}).Partition(ctx.Snap.H, ctx.WM, ctx.NProcs+1)
	return a, "misfit", err
}

// TestAssignRejectsMisfitAssignment: an assignment whose processor count
// is not the one the strategy was asked for fails the run at the regrid
// that returned it, on a healthy machine and across survivors alike,
// rather than skewing the costs or panicking in the remap.
func TestAssignRejectsMisfitAssignment(t *testing.T) {
	tr := testTrace(t)
	lossy := cluster.Homogeneous(4, 1e5, 512, 100)
	lossy.Fail(1, 0)
	for _, tc := range []struct {
		name    string
		machine *cluster.Cluster
		want    string
	}{
		{"healthy", cluster.Homogeneous(4, 1e5, 512, 100), "core: regrid 0: core: misfit assigned 5 processors, want 4"},
		{"survivors", lossy, "core: regrid 0: core: misfit assigned 4 processors, want 3"},
	} {
		_, err := Run(tr, misfit{}, RunConfig{Machine: tc.machine, NProcs: 4})
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
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
	row := monitor.ClusterSensor{Cluster: ctx.Machine}.Sample(ctx.SimTime())
	p.calls = append(p.calls, capsCall{nodes: ctx.Nodes, row: row, caps: p.s.Capacities(), nprocs: a.NProcs})
	return a, label, nil
}

// TestCapacityStrategiesAfterNodeLoss: a capacity strategy whose node
// dies partitions across the survivors by their own nodes' readings,
// whether capacities are computed once, at every regrid, or forecast.
// Node 2 fails a third of the way into the healthy run; from then on each
// survivor's capacity must be what the capacity calculator makes of the
// survivors' readings, in survivor order, and the work must be split
// across the survivors alone. Forecasting, every regrid's capacities,
// before the failure too, must be the replay oracle's over every sample
// so far.
func TestCapacityStrategiesAfterNodeLoss(t *testing.T) {
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
			healthy, err := Run(tr, &healthyStrat, RunConfig{Machine: cluster.LinuxCluster(8, 2002), NProcs: 8})
			if err != nil {
				t.Fatal(err)
			}
			machine := cluster.LinuxCluster(8, 2002)
			machine.Fail(2, healthy.TotalTime/3)
			strat := tc.cfg
			probe := &capsProbe{s: &strat}
			res, err := Run(tr, probe, RunConfig{Machine: machine, NProcs: 8})
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

// TestFailureSearch runs five strategies on SP2 and
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
							res := requireResumes(t, tr, in.mk, cfg, points)
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

// fuzzTraces caches the traces FuzzRun replays, by input selector.
var fuzzTraces sync.Map

// FuzzRun replays a trace on a machine that loses up to three nodes and
// holds Run to its failure contract: it never panics; it is finite when
// the run ends, and fails only when every processor has died; a run with
// a checkpoint directory is the run without one; and a run crashed at a
// fuzzed Assign call resumes to the uninterrupted run bit for bit.
//
// Inputs: trace 0 is the small trace, 1 the small trace under RM3D's work
// model, and from 2 on a corpus scenario; linuxSeed 0 is SP2 and any other
// seeds LinuxCluster; the run uses 1..8 processors on up to two more
// nodes; strat picks one of seven strategies; failures is read as
// (node, milliseconds as two big-endian bytes) triples; crash picks the
// Assign call the crashed attempt dies entering.
func FuzzRun(f *testing.F) {
	// SystemSensitive recalibrating at every regrid, and proactive, each
	// with and without the work model, on LinuxCluster(8, 2002) with node
	// 1 dead at 5 s: +Inf without a checkpoint directory and a NaN
	// checkpoint error with one, when failure handling was optional.
	for _, trace := range []uint8{0, 1} {
		for _, strat := range []uint8{4, 5} {
			f.Add(trace, int64(2002), uint8(7), uint8(0), strat, []byte{1, 0x13, 0x88}, uint8(9))
		}
	}
	f.Add(uint8(0), int64(0), uint8(7), uint8(2), uint8(0), []byte{8, 0, 100, 7, 0x27, 0x10}, uint8(3))
	f.Add(uint8(1), int64(7), uint8(5), uint8(1), uint8(6), []byte{1, 0x13, 0x88, 3, 0x3a, 0x98, 0, 0x4e, 0x20}, uint8(20))
	f.Add(uint8(2), int64(0), uint8(3), uint8(0), uint8(1), []byte{0, 0, 0, 1, 0, 0, 2, 0x13, 0x88}, uint8(2))
	f.Add(uint8(3), int64(11), uint8(0), uint8(2), uint8(2), []byte{0, 0x07, 0xd0}, uint8(1))
	f.Add(uint8(0), int64(0), uint8(7), uint8(0), uint8(3), []byte{}, uint8(40))
	// Node 0 is dead from the start, node 2 dies at 8.24 s and node 1 at
	// 8.496 s, while the data of the recovery from node 2's loss is still
	// moving: the recovery must repeat.
	f.Add(uint8(4), int64(99), uint8(3), uint8(0), uint8(5), []byte{0, 0, 0, 1, 0x21, 0x30, 2, 0x20, 0x30}, uint8(2))
	f.Fuzz(func(t *testing.T, trace uint8, linuxSeed int64, procs, spares, strat uint8, failures []byte, crash uint8) {
		tr, wm := fuzzTrace(t, trace)
		nprocs := 1 + int(procs)%8
		nodes := nprocs + int(spares)%3
		var fails []cluster.Failure
		for i := 0; i+2 < len(failures) && len(fails) < 3; i += 3 {
			at := float64(int(failures[i+1])<<8|int(failures[i+2])) / 1000
			fails = append(fails, cluster.Failure{Node: int(failures[i]) % nodes, At: at})
		}
		mk := fuzzStrategies[int(strat)%len(fuzzStrategies)]
		newStrat := func() Strategy { return mk(t, nprocs) }
		cfg := func() RunConfig {
			m := cluster.SP2(nodes)
			if linuxSeed != 0 {
				m = cluster.LinuxCluster(nodes, linuxSeed)
			}
			m.Failures = fails
			return RunConfig{Machine: m, NProcs: nprocs, WorkModel: wm}
		}
		outcome := func(res *RunResult, err error) string {
			if err != nil {
				return "error " + err.Error()
			}
			return fmt.Sprintf("%+v", *res)
		}

		want, err := Run(tr, newStrat(), cfg())
		if err != nil {
			dead := map[int]bool{}
			for _, fl := range fails {
				dead[fl.Node] = true
			}
			for p := 0; p < nprocs; p++ {
				if !dead[p] {
					t.Fatalf("processor %d never dies, yet the run failed: %v", p, err)
				}
			}
			if !strings.Contains(err.Error(), "core: no nodes alive at t=") {
				t.Fatalf("run failed with %v, want the no-nodes-alive error", err)
			}
		} else if math.IsInf(want.TotalTime, 0) || math.IsNaN(want.TotalTime) {
			t.Fatalf("TotalTime = %v", want.TotalTime)
		}
		wantOut := outcome(want, err)

		ckpt := cfg()
		ckpt.CheckpointDir = t.TempDir()
		if got := outcome(Run(tr, newStrat(), ckpt)); got != wantOut {
			t.Fatalf("with a checkpoint directory: %s\nwithout: %s", got, wantOut)
		}

		crashed := cfg()
		crashed.CheckpointDir = t.TempDir()
		fp := &chaos.FaultPoint{FailAt: 1 + int(crash)%len(tr.Snapshots)}
		_, err = Run(tr, crashingStrategy{inner: newStrat(), fp: fp}, crashed)
		if fp.Fired() != errors.Is(err, chaos.ErrInjectedCrash) {
			t.Fatalf("crash at call %d: fired %v, err = %v", fp.FailAt, fp.Fired(), err)
		}
		resume := cfg()
		resume.CheckpointDir, resume.Resume = crashed.CheckpointDir, true
		if got := outcome(Run(tr, newStrat(), resume)); got != wantOut {
			t.Fatalf("resumed after a crash at call %d: %s\nuninterrupted: %s", fp.FailAt, got, wantOut)
		}
	})
}

// fuzzStrategies builds FuzzRun's strategies for a run of nprocs
// processors.
var fuzzStrategies = []func(t *testing.T, nprocs int) Strategy{
	func(*testing.T, int) Strategy { return Static{P: partition.GMISPSP{}} },
	func(*testing.T, int) Strategy { return Adaptive{ImbalanceGuard: 20} },
	func(*testing.T, int) Strategy { return Adaptive{} },
	func(*testing.T, int) Strategy { return &SystemSensitive{} },
	func(*testing.T, int) Strategy { return &SystemSensitive{RecalibrateEvery: 1} },
	func(*testing.T, int) Strategy { return &SystemSensitive{RecalibrateEvery: 1, Forecast: true} },
	func(t *testing.T, nprocs int) Strategy {
		am, err := NewAgentManaged(nprocs, 25)
		if err != nil {
			t.Fatal(err)
		}
		return am
	},
}

// fuzzTrace returns FuzzRun's trace and work model for selector sel.
func fuzzTrace(t *testing.T, sel uint8) (*samr.Trace, func(int) samr.WorkModel) {
	switch sel {
	case 0:
		return testTrace(t), nil
	case 1:
		return testTrace(t), rm3d.SmallConfig().WorkModel
	}
	spec := scenario.RandomSpec(int64(sel-2) % 8)
	tr, ok := fuzzTraces.Load(spec.Seed)
	if !ok {
		gen, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		tr, _ = fuzzTraces.LoadOrStore(spec.Seed, gen)
	}
	return tr.(*samr.Trace), spec.WorkModel
}
