package experiments

import (
	"fmt"
	"math/rand"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/sfc"
)

// This file holds the ablation studies of DESIGN.md §6: experiments probing
// the design choices behind the headline results rather than reproducing a
// specific paper table.

// CurveAblationRow compares space-filling-curve orderings inside an ISP
// partitioner.
type CurveAblationRow struct {
	Curve        string
	CommVolume   float64 // mean per regrid
	CommMessages float64 // mean per regrid
	Imbalance    float64 // mean per regrid
}

// AblationCurves compares Hilbert versus Morton ordering in the SP-ISP
// partitioner over the RM3D trace: Hilbert's locality should never lose on
// communication volume.
func AblationCurves(cfg rm3d.Config, nprocs int, sampleEvery int) ([]CurveAblationRow, error) {
	tr, err := TraceFor(cfg)
	if err != nil {
		return nil, err
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	dom := cfg.Domain()
	finest := dom
	for i := 1; i < cfg.MaxDepth; i++ {
		finest = finest.Refine(cfg.Ratio)
	}
	bits := sfc.BitsFor(finest.Dx(0), finest.Dx(1), finest.Dx(2))
	curves := []struct {
		name  string
		curve sfc.Curve
	}{
		{"hilbert", sfc.MustHilbert(bits)},
		{"morton", sfc.MustMorton(bits)},
	}
	var rows []CurveAblationRow
	for _, c := range curves {
		p := partition.SPISPOnCurve(c.curve)
		row := CurveAblationRow{Curve: c.name}
		n := 0
		for idx := 0; idx < len(tr.Snapshots); idx += sampleEvery {
			snap := tr.Snapshots[idx]
			a, err := p.Partition(snap.H, cfg.WorkModel(idx), nprocs)
			if err != nil {
				return nil, err
			}
			st := partition.BuildCommPlan(snap.H, a).Stats
			row.CommVolume += st.Volume
			row.CommMessages += st.Messages
			row.Imbalance += a.Imbalance()
			n++
		}
		row.CommVolume /= float64(n)
		row.CommMessages /= float64(n)
		row.Imbalance /= float64(n)
		rows = append(rows, row)
	}
	return rows, nil
}

// SplitAblationRow compares sequence-splitting algorithms at identical
// granularity.
type SplitAblationRow struct {
	Splitter     string
	Imbalance    float64 // mean per regrid
	MaxImbalance float64
}

// AblationSplitters holds granularity fixed (the G-MISP decomposition) and
// varies only the 1-D splitting algorithm: greedy (G-MISP), optimal
// sequence partitioning (G-MISP+SP). The SP variant must dominate.
func AblationSplitters(cfg rm3d.Config, nprocs int, sampleEvery int) ([]SplitAblationRow, error) {
	tr, err := TraceFor(cfg)
	if err != nil {
		return nil, err
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	partitioners := []partition.Partitioner{partition.GMISP, partition.GMISPSP}
	var rows []SplitAblationRow
	for _, p := range partitioners {
		row := SplitAblationRow{Splitter: p.Name()}
		n := 0
		for idx := 0; idx < len(tr.Snapshots); idx += sampleEvery {
			snap := tr.Snapshots[idx]
			a, err := p.Partition(snap.H, cfg.WorkModel(idx), nprocs)
			if err != nil {
				return nil, err
			}
			imb := a.Imbalance()
			row.Imbalance += imb
			if imb > row.MaxImbalance {
				row.MaxImbalance = imb
			}
			n++
		}
		row.Imbalance /= float64(n)
		rows = append(rows, row)
	}
	return rows, nil
}

// ForecastAblationRow reports a forecaster's mean squared one-step error on
// a synthetic CPU-availability series.
type ForecastAblationRow struct {
	Forecaster string
	MSE        float64
}

// AblationForecasters evaluates each NWS-style forecaster and the
// meta-forecaster on CPU-availability series sampled from the synthetic
// load generator; the meta-forecaster should track the best individual.
func AblationForecasters(nodes, samples int, seed int64) ([]ForecastAblationRow, error) {
	if nodes < 1 || samples < 10 {
		return nil, fmt.Errorf("experiments: need nodes >= 1 and samples >= 10")
	}
	load := cluster.NewSyntheticLoad(nodes, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	series := make([][]float64, nodes)
	for i := range series {
		series[i] = make([]float64, samples)
		for s := 0; s < samples; s++ {
			// Observed availability with measurement noise.
			series[i][s] = 1 - load.Load(i, float64(s)*5) + 0.02*rng.NormFloat64()
		}
	}
	// Each node's meta-forecaster accumulates its pool members' errors;
	// the meta row is its own.
	members := []string{"last-value", "running-mean", "sliding-mean-8", "sliding-median-8", "exp-smoothing-0.30", "ar1-32"}
	sums := make([]float64, len(members)+1)
	for i := range series {
		m := monitor.NewMeta()
		sums[len(members)] += monitor.MSEOf(m, series[i])
		mse := m.MSE()
		for j, name := range members {
			sums[j] += mse[name]
		}
	}
	var rows []ForecastAblationRow
	for j, name := range append(members, "nws-meta") {
		rows = append(rows, ForecastAblationRow{Forecaster: name, MSE: sums[j] / float64(nodes)})
	}
	return rows, nil
}

// ProcSweepRow extends Table 4 across processor counts.
type ProcSweepRow struct {
	Procs                 int
	AdaptiveTime          float64
	BestStaticTime        float64
	BestStatic            string
	WorstStaticTime       float64
	WorstStatic           string
	AdaptiveVsWorstStatic float64 // percent improvement
}

// AblationProcSweep reruns the Table 4 comparison at several processor
// counts — the headline experiment is one point of this curve.
func AblationProcSweep(cfg rm3d.Config, procCounts []int) ([]ProcSweepRow, error) {
	tr, err := TraceFor(cfg)
	if err != nil {
		return nil, err
	}
	var rows []ProcSweepRow
	for _, n := range procCounts {
		rc := core.RunConfig{Machine: cluster.SP2(n), NProcs: n, WorkModel: cfg.WorkModel}
		adaptive, err := core.Run(tr, core.Adaptive{ImbalanceGuard: 20}, rc)
		if err != nil {
			return nil, err
		}
		row := ProcSweepRow{Procs: n, AdaptiveTime: adaptive.TotalTime}
		for _, p := range []partition.Partitioner{partition.SFC, partition.GMISPSP, partition.PBDISP} {
			res, err := core.Run(tr, core.Static{P: p}, rc)
			if err != nil {
				return nil, err
			}
			if row.BestStatic == "" || res.TotalTime < row.BestStaticTime {
				row.BestStatic, row.BestStaticTime = p.Name(), res.TotalTime
			}
			if row.WorstStatic == "" || res.TotalTime > row.WorstStaticTime {
				row.WorstStatic, row.WorstStaticTime = p.Name(), res.TotalTime
			}
		}
		row.AdaptiveVsWorstStatic = 100 * (row.WorstStaticTime - row.AdaptiveTime) / row.WorstStaticTime
		rows = append(rows, row)
	}
	return rows, nil
}

// WeightAblationRow reports Table 5 improvement under one capacity
// weighting.
type WeightAblationRow struct {
	Weights     monitor.Weights
	Improvement float64 // percent at the given cluster size
}

// AblationCapacityWeights sweeps the CPU weight of the capacity formula on
// the Table 5 scenario: heavier CPU weighting should help on a
// CPU-load-dominated cluster, saturating near pure-CPU weighting.
func AblationCapacityWeights(cfg rm3d.Config, nprocs int, loadSeed int64) ([]WeightAblationRow, error) {
	tr, err := TraceFor(cfg)
	if err != nil {
		return nil, err
	}
	machine := cluster.LinuxCluster(nprocs, loadSeed)
	rc := core.RunConfig{Machine: machine, NProcs: nprocs, WorkModel: cfg.WorkModel}
	def, err := core.Run(tr, core.Static{P: partition.EqualBlock}, rc)
	if err != nil {
		return nil, err
	}
	var rows []WeightAblationRow
	for _, cpuW := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		rest := (1 - cpuW) / 2
		w := monitor.Weights{CPU: cpuW, Memory: rest, Bandwidth: rest}
		res, err := core.Run(tr, &core.SystemSensitive{Weights: w}, rc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WeightAblationRow{
			Weights:     w,
			Improvement: 100 * (def.TotalTime - res.TotalTime) / def.TotalTime,
		})
	}
	return rows, nil
}

// FailureAblationRow reports a failure-injection scenario.
type FailureAblationRow struct {
	Scenario string
	Runtime  float64
	// Detected counts the strategy calls, at regrids and recoveries, at
	// which dead nodes were observed.
	Detected int
}

// AblationFailures injects fail-stop node failures mid-run and measures
// how gracefully a run degrades as it moves work off the lost nodes — the
// "respond to system failures" goal of §1. Scenarios: healthy, one
// failure, two failures (all on the same machine description).
func AblationFailures(cfg rm3d.Config, nprocs int) ([]FailureAblationRow, error) {
	tr, err := TraceFor(cfg)
	if err != nil {
		return nil, err
	}
	rc := core.RunConfig{Machine: cluster.SP2(nprocs), NProcs: nprocs, WorkModel: cfg.WorkModel}
	healthy, err := core.Run(tr, core.Static{P: partition.GMISPSP}, rc)
	if err != nil {
		return nil, err
	}
	rows := []FailureAblationRow{{Scenario: "healthy", Runtime: healthy.TotalTime}}

	for _, failures := range []int{1, 2} {
		machine := cluster.SP2(nprocs)
		for k := 0; k < failures; k++ {
			machine.Fail(1+2*k, healthy.TotalTime*float64(k+1)/4)
		}
		ft := &detections{Strategy: core.Static{P: partition.GMISPSP}, nprocs: nprocs}
		res, err := core.Run(tr, ft, core.RunConfig{Machine: machine, NProcs: nprocs, WorkModel: cfg.WorkModel})
		if err != nil {
			return nil, err
		}
		rows = append(rows, FailureAblationRow{
			Scenario: fmt.Sprintf("%d node(s) fail mid-run", failures),
			Runtime:  res.TotalTime,
			Detected: ft.seen,
		})
	}
	return rows, nil
}

// detections counts the Assign calls, at a regrid or a recovery, at which
// some of the run's nprocs processors were dead: those core.Run hands the
// strategy fewer processors for.
type detections struct {
	core.Strategy
	nprocs, seen int
}

func (d *detections) Assign(ctx *core.StepContext) (*partition.Assignment, string, error) {
	if ctx.NProcs < d.nprocs {
		d.seen++
	}
	return d.Strategy.Assign(ctx)
}

// ManagementAblationRow compares runtime-management styles on a loaded
// cluster.
type ManagementAblationRow struct {
	Strategy     string
	Runtime      float64
	Repartitions int // regrids that actually repartitioned
}

// AblationManagement compares the default scheme, reactive
// system-sensitive partitioning, the proactive (predictive) variant, and
// the event-driven agent-managed loop on the same loaded cluster.
func AblationManagement(cfg rm3d.Config, nprocs int, loadSeed int64) ([]ManagementAblationRow, error) {
	tr, err := TraceFor(cfg)
	if err != nil {
		return nil, err
	}
	machine := cluster.LinuxCluster(nprocs, loadSeed)
	rc := core.RunConfig{Machine: machine, NProcs: nprocs, WorkModel: cfg.WorkModel}

	var rows []ManagementAblationRow
	add := func(s core.Strategy) error {
		res, err := core.Run(tr, s, rc)
		if err != nil {
			return err
		}
		// A regrid repartitioned unless it reprojected.
		row := ManagementAblationRow{Strategy: res.Strategy, Runtime: res.TotalTime}
		for _, st := range res.Snapshots {
			if st.Partitioner != "reprojected" {
				row.Repartitions++
			}
		}
		rows = append(rows, row)
		return nil
	}
	if err := add(core.Static{P: partition.EqualBlock}); err != nil {
		return nil, err
	}
	if err := add(&core.SystemSensitive{}); err != nil {
		return nil, err
	}
	if err := add(&core.SystemSensitive{RecalibrateEvery: 1, Forecast: true}); err != nil {
		return nil, err
	}
	am, err := core.NewAgentManaged(nprocs, 25)
	if err != nil {
		return nil, err
	}
	if err := add(am); err != nil {
		return nil, err
	}
	return rows, nil
}
