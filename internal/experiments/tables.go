package experiments

import (
	"fmt"
	"math/rand"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/perf"
	"github.com/pragma-grid/pragma/internal/policy"
	"github.com/pragma-grid/pragma/internal/rm3d"
)

// ---------------------------------------------------------------------------
// Table 1 — Accuracy of the Performance Functions.

// Table1Row is one line of Table 1: predicted versus measured end-to-end
// delay of the PC1 -> switch -> PC2 pipeline.
type Table1Row struct {
	DataSize     float64 // bytes
	Predicted    float64 // seconds, composed PF (Eq. 2)
	Measured     float64 // seconds, noisy end-to-end measurement
	PercentError float64
}

// Table1 fits neural PFs to the example system's components, composes them,
// and evaluates prediction accuracy at the paper's five data sizes.
func Table1() ([]Table1Row, error) {
	comps := perf.ExampleSystem(0.02)
	trainSizes := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 1100, 1200}
	e2e, _, err := perf.FitComponentPFs(comps, trainSizes, 6, 42)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	var rows []Table1Row
	for _, d := range []float64{200, 400, 600, 800, 1000} {
		measured := perf.MeasureEndToEnd(comps, d, rng)
		predicted := e2e.Eval(d)
		rows = append(rows, Table1Row{
			DataSize:     d,
			Predicted:    predicted,
			Measured:     measured,
			PercentError: perf.PercentError(predicted, measured),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 2 — Recommendations for mapping octants onto partitioning schemes.

// Table2Row is one line of Table 2.
type Table2Row struct {
	Octant  string
	Schemes []string
}

// Table2 returns the octant -> partitioner policy, as queried from the
// policy knowledge base (not the raw table), so the experiment exercises
// the associative query path.
func Table2() []Table2Row {
	base := policy.Table2()
	var rows []Table2Row
	for _, oct := range []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII"} {
		var schemes []string
		for _, s := range base.Query(map[string]interface{}{"octant": oct}) {
			if s.Rule.Then.Kind == "select-partitioner" {
				schemes = append(schemes, s.Rule.Then.Target)
			}
		}
		rows = append(rows, Table2Row{Octant: oct, Schemes: schemes})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table 3 — Characterizing RM3D application run-time state.

// Table3Row is one line of Table 3: the octant state and selected
// partitioner at a sampled time-step of the RM3D run.
type Table3Row struct {
	TimeStep    int
	Octant      string
	Partitioner string
}

// Table3SampleSteps are the time-steps the paper samples.
var Table3SampleSteps = []int{0, 5, 25, 106, 137, 162, 174, 201}

// Table3 characterizes the RM3D adaptation trace at the paper's sampled
// time-steps.
func Table3() ([]Table3Row, error) {
	tr, err := PaperTrace()
	if err != nil {
		return nil, err
	}
	meta := core.NewMetaPartitioner()
	var rows []Table3Row
	for _, ts := range Table3SampleSteps {
		p, o, err := meta.SelectAt(tr, ts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{TimeStep: ts, Octant: o.String(), Partitioner: p.Name()})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 4 — Partitioner performance for RM3D on 64 processors.

// Table4Row is one line of Table 4.
type Table4Row struct {
	Partitioner   string
	Runtime       float64 // simulated seconds
	MaxImbalance  float64 // percent
	AMREfficiency float64 // percent
}

// Table4Config parameterizes the Table 4 replay.
type Table4Config struct {
	Trace  rm3d.Config
	NProcs int
}

// DefaultTable4Config is the paper's setup: the RM3D trace on 64 processors
// of the simulated SP2.
func DefaultTable4Config() Table4Config {
	return Table4Config{Trace: rm3d.DefaultConfig(), NProcs: 64}
}

// SmallTable4Config is a reduced setup for fast tests.
func SmallTable4Config() Table4Config {
	return Table4Config{Trace: rm3d.SmallConfig(), NProcs: 16}
}

// Table4 replays the RM3D trace under SFC, G-MISP+SP, pBD-ISP and the
// adaptive meta-partitioner and reports runtime, maximum load imbalance and
// AMR efficiency.
func Table4(cfg Table4Config) ([]Table4Row, error) {
	tr, err := TraceFor(cfg.Trace)
	if err != nil {
		return nil, err
	}
	machine := table4Machine(cfg.NProcs)
	rc := core.RunConfig{
		Machine:   machine,
		NProcs:    cfg.NProcs,
		WorkModel: cfg.Trace.WorkModel,
	}
	strategies := []core.Strategy{
		core.Static{P: partition.SFC},
		core.Static{P: partition.GMISPSP},
		core.Static{P: partition.PBDISP},
		core.Adaptive{ImbalanceGuard: 20},
	}
	var rows []Table4Row
	for _, s := range strategies {
		res, err := core.Run(tr, s, rc)
		if err != nil {
			return nil, fmt.Errorf("table4: %s: %w", s.Name(), err)
		}
		rows = append(rows, Table4Row{
			Partitioner:   s.Name(),
			Runtime:       res.TotalTime,
			MaxImbalance:  res.MaxImbalance,
			AMREfficiency: res.AMREfficiency,
		})
	}
	return rows, nil
}

// table4Machine models the Blue Horizon partition.
func table4Machine(nprocs int) *cluster.Cluster {
	return cluster.SP2(nprocs)
}

// ---------------------------------------------------------------------------
// Table 5 — Improvement due to system-sensitive adaptive partitioning.

// Table5Row is one line of Table 5.
type Table5Row struct {
	Procs               int
	DefaultTime         float64 // simulated seconds, equal distribution
	SystemSensitiveTime float64 // simulated seconds, capacity-weighted
	Improvement         float64 // percent
}

// Table5Config parameterizes the Table 5 replay.
type Table5Config struct {
	Trace      rm3d.Config
	ProcCounts []int
	// LoadSeed seeds the synthetic background load generator.
	LoadSeed int64
}

// DefaultTable5Config is the paper's setup: the RM3D kernel on a Linux
// workstation cluster of 4 to 32 nodes with synthetic background load.
func DefaultTable5Config() Table5Config {
	return Table5Config{Trace: rm3d.DefaultConfig(), ProcCounts: []int{4, 8, 16, 32}, LoadSeed: 2002}
}

// SmallTable5Config is a reduced setup for fast tests.
func SmallTable5Config() Table5Config {
	return Table5Config{Trace: rm3d.SmallConfig(), ProcCounts: []int{4, 16}, LoadSeed: 2002}
}

// Table5 compares the system-sensitive partitioner against the default
// equal-distribution scheme on a synthetically loaded cluster, per
// processor count.
func Table5(cfg Table5Config) ([]Table5Row, error) {
	tr, err := TraceFor(cfg.Trace)
	if err != nil {
		return nil, err
	}
	var rows []Table5Row
	for _, n := range cfg.ProcCounts {
		machine := cluster.LinuxCluster(n, cfg.LoadSeed)
		rc := core.RunConfig{Machine: machine, NProcs: n, WorkModel: cfg.Trace.WorkModel}
		def, err := core.Run(tr, core.Static{P: partition.EqualBlock}, rc)
		if err != nil {
			return nil, fmt.Errorf("table5: default/%d: %w", n, err)
		}
		ss, err := core.Run(tr, &core.SystemSensitive{}, rc)
		if err != nil {
			return nil, fmt.Errorf("table5: system-sensitive/%d: %w", n, err)
		}
		rows = append(rows, Table5Row{
			Procs:               n,
			DefaultTime:         def.TotalTime,
			SystemSensitiveTime: ss.TotalTime,
			Improvement:         100 * (def.TotalTime - ss.TotalTime) / def.TotalTime,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 2 — The octant approach (state-space occupancy of the RM3D run).

// Figure2Row describes one octant of the state space and how often the
// RM3D trace visits it.
type Figure2Row struct {
	Octant         string
	HigherDynamics bool
	CommDominated  bool
	Scattered      bool
	Visits         int
}

// Figure2 classifies every snapshot of the RM3D trace and reports octant
// occupancy: the live version of the paper's state-space diagram.
func Figure2() ([]Figure2Row, error) {
	tr, err := PaperTrace()
	if err != nil {
		return nil, err
	}
	chars, err := octant.CharacterizeTrace(tr, octant.DefaultThresholds(), 3)
	if err != nil {
		return nil, err
	}
	visits := map[octant.Octant]int{}
	for _, c := range chars {
		visits[c.Octant]++
	}
	var rows []Figure2Row
	for o := octant.I; o <= octant.VIII; o++ {
		rows = append(rows, Figure2Row{
			Octant:         o.String(),
			HigherDynamics: o.HigherDynamics(),
			CommDominated:  o.CommDominated(),
			Scattered:      o.Scattered(),
			Visits:         visits[o],
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 3 — RM3D profile views at sampled time-steps.

// Figure3 renders refinement profiles of the RM3D run at the given
// time-steps (defaults to Table3SampleSteps).
func Figure3(steps ...int) ([]string, error) {
	tr, err := PaperTrace()
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		steps = Table3SampleSteps
	}
	var out []string
	for _, ts := range steps {
		snap, ok := tr.At(ts)
		if !ok {
			return nil, fmt.Errorf("figure3: no snapshot %d", ts)
		}
		out = append(out, rm3d.Profile(snap))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 4 — System-sensitive adaptive partitioning pipeline.

// Figure4Result traces one pass through the Fig. 4 pipeline: monitored
// resources -> relative capacities -> weighted partitioning.
type Figure4Result struct {
	// CPUAvailable is the monitored per-node available CPU fraction.
	CPUAvailable []float64
	// Capacities are the computed relative capacities (sum to 1).
	Capacities []float64
	// WorkShares are the per-node fractions of grid work the
	// heterogeneous partitioner actually assigned.
	WorkShares []float64
}

// Figure4 runs the system-sensitive pipeline once on a loaded 8-node
// cluster and the first RM3D snapshot.
func Figure4() (*Figure4Result, error) {
	tr, err := PaperTrace()
	if err != nil {
		return nil, err
	}
	machine := cluster.LinuxCluster(8, 2002)
	s := &core.SystemSensitive{}
	ctx := &core.StepContext{
		Index:   0,
		Trace:   tr,
		Snap:    tr.Snapshots[0],
		WM:      rm3d.DefaultConfig().WorkModel(0),
		NProcs:  8,
		Machine: machine,
	}
	a, _, err := s.Assign(ctx)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{}
	for i := 0; i < machine.NProcs(); i++ {
		res.CPUAvailable = append(res.CPUAvailable, 1-machine.Load.Load(i, 0))
	}
	work := a.Work()
	var total float64
	for _, w := range work {
		total += w
	}
	for _, w := range work {
		res.WorkShares = append(res.WorkShares, w/total)
	}
	res.Capacities = s.Capacities()
	return res, nil
}
