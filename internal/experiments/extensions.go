package experiments

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/astro"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/perf"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

// This file holds the extension experiments that go beyond the paper's
// tables: the cross-application study over all three driver applications
// of §2, and PF-based application runtime prediction (research challenge 1
// of §1: "anticipate the operations and expected performance of
// applications for a given workload and system configuration").

// CrossAppRow summarizes one driver application's interaction with Pragma.
type CrossAppRow struct {
	Application string
	// Occupancy counts snapshots per octant (I..VIII in order).
	Occupancy [8]int
	// AdaptiveTime and BestStaticTime compare the meta-partitioner against
	// the best single partitioner for this application.
	AdaptiveTime   float64
	BestStaticTime float64
	BestStatic     string
	// Switches counts the adaptive run's partitioner changes.
	Switches int
}

// CrossApplication runs all three §2 driver applications — RM3D, galaxy
// formation, and the supernova — through characterization and replay on
// the same machine, showing how application-specific the octant
// trajectories and partitioner choices are.
func CrossApplication(nprocs int) ([]CrossAppRow, error) {
	rmTrace, err := TraceFor(rm3d.SmallConfig())
	if err != nil {
		return nil, err
	}
	acfg := astro.SmallConfig()
	galaxy, err := astro.GenerateTrace(acfg, astro.NewGalaxy(acfg, 12))
	if err != nil {
		return nil, err
	}
	supernova, err := astro.GenerateTrace(acfg, astro.NewSupernova(acfg))
	if err != nil {
		return nil, err
	}
	machine := cluster.SP2(nprocs)
	var rows []CrossAppRow
	for _, tr := range []*samr.Trace{rmTrace, galaxy, supernova} {
		row := CrossAppRow{Application: tr.Name}
		chars, err := octant.CharacterizeTrace(tr, octant.DefaultThresholds(), 3)
		if err != nil {
			return nil, err
		}
		for _, c := range chars {
			row.Occupancy[int(c.Octant)-1]++
		}
		rc := core.RunConfig{Machine: machine, NProcs: nprocs}
		adaptive, err := core.Run(tr, core.Adaptive{ImbalanceGuard: 20}, rc)
		if err != nil {
			return nil, fmt.Errorf("%s adaptive: %w", tr.Name, err)
		}
		row.AdaptiveTime = adaptive.TotalTime
		row.Switches = adaptive.Switches
		for _, p := range []partition.Partitioner{partition.SFC, partition.GMISPSP, partition.PBDISP} {
			res, err := core.Run(tr, core.Static{P: p}, rc)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", tr.Name, p.Name(), err)
			}
			if row.BestStatic == "" || res.TotalTime < row.BestStaticTime {
				row.BestStatic, row.BestStaticTime = p.Name(), res.TotalTime
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PredictionRow compares PF-predicted against simulated runtime at one
// processor count.
type PredictionRow struct {
	Procs        int
	Predicted    float64
	Simulated    float64
	PercentError float64
	// Extrapolated marks processor counts outside the training set.
	Extrapolated bool
}

// PFRuntimePrediction applies the paper's PF methodology at the
// application level: simulated runtimes at small processor counts are the
// "measurements", a neural PF of runtime versus processor count is fitted
// from them, and the PF then predicts runtimes at larger counts —
// anticipating application performance for configurations that were never
// run. Interpolation should land within a few percent; extrapolation
// degrades gracefully.
func PFRuntimePrediction(cfg rm3d.Config) ([]PredictionRow, error) {
	tr, err := TraceFor(cfg)
	if err != nil {
		return nil, err
	}
	simulate := func(n int) (float64, error) {
		res, err := core.Run(tr, core.Static{P: partition.GMISPSP},
			core.RunConfig{Machine: cluster.SP2(n), NProcs: n, WorkModel: cfg.WorkModel})
		if err != nil {
			return 0, err
		}
		return res.TotalTime, nil
	}
	trainProcs := []int{2, 3, 4, 6, 8, 12, 16}
	var xs, ys []float64
	for _, n := range trainProcs {
		t, err := simulate(n)
		if err != nil {
			return nil, err
		}
		// Fit in the work-per-processor domain, where runtime is nearly
		// linear, as the PF attribute.
		xs = append(xs, 1/float64(n))
		ys = append(ys, t)
	}
	pf, err := perf.TrainNeural("runtime-vs-procs", xs, ys, perf.TrainOptions{Seed: 6, Epochs: 12000})
	if err != nil {
		return nil, err
	}
	var rows []PredictionRow
	for _, n := range []int{4, 8, 16, 24, 32} {
		sim, err := simulate(n)
		if err != nil {
			return nil, err
		}
		pred := pf.Eval(1 / float64(n))
		extrapolated := n > trainProcs[len(trainProcs)-1]
		rows = append(rows, PredictionRow{
			Procs:        n,
			Predicted:    pred,
			Simulated:    sim,
			PercentError: perf.PercentError(pred, sim),
			Extrapolated: extrapolated,
		})
	}
	return rows, nil
}
