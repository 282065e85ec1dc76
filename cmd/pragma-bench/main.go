// Command pragma-bench regenerates the tables and figures of the paper's
// evaluation (Parashar & Hariri, IPDPS 2002) and prints them in the paper's
// format.
//
// Usage:
//
//	pragma-bench -all            # every table and figure (paper scale, ~2 min)
//	pragma-bench -table 4        # one table
//	pragma-bench -figure 3       # one figure
//	pragma-bench -table 4 -small # reduced configuration (seconds)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/pragma-grid/pragma/internal/experiments"
	"github.com/pragma-grid/pragma/internal/rm3d"
)

// rm3dSmall avoids importing rm3d at every call site.
func rm3dSmall() rm3d.Config { return rm3d.SmallConfig() }

// out receives the human-readable tables. Under -json it switches to
// stderr so stdout carries exactly one machine-readable JSON object.
var out io.Writer = os.Stdout

// runRecord is one table/figure regeneration in the -json report.
type runRecord struct {
	Name    string             `json:"name"`
	Seconds float64            `json:"seconds"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the single JSON object -json writes to stdout.
type benchReport struct {
	Schema string      `json:"schema"`
	Small  bool        `json:"small"`
	Runs   []runRecord `json:"runs"`
}

// current is the record the running printer adds metrics to via metric().
var current *runRecord

func metric(key string, v float64) {
	if current != nil {
		current.Metrics[key] = v
	}
}

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate one table (1-5)")
		figure     = flag.Int("figure", 0, "regenerate one figure (2-4)")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		small      = flag.Bool("small", false, "use the reduced configuration for Tables 4 and 5")
		ablations  = flag.Bool("ablations", false, "run the DESIGN.md ablation studies")
		extensions = flag.Bool("extensions", false, "run the extension experiments (cross-application study, PF runtime prediction)")
		kernel     = flag.Bool("kernel", false, "benchmark the PAC evaluation kernels (reference vs CommPlan)")
		schedLoad  = flag.Bool("sched", false, "benchmark the run scheduler (many tiny replays through the shared pool)")
		scen       = flag.String("scenario", "", "replay a composed scenario spec (internal/scenario grammar) and report declared vs observed octants")
		scenCov    = flag.Int("scenario-coverage", 0, "replay a corpus of this many seeded scenarios and print the octant-coverage table (EXPERIMENTS.md uses 100)")
		jsonOut    = flag.Bool("json", false, "write one JSON object with per-run wall time and key metrics to stdout (tables go to stderr)")

		load         = flag.Bool("load", false, "run the open-loop load harness against the /sched serving surface")
		loadURL      = flag.String("url", "", "load target base URL (empty: an in-process scheduler is started)")
		loadQPS      = flag.Float64("qps", 200, "peak load rate in requests/second")
		loadDuration = flag.Duration("duration", 5*time.Second, "measured load stage length")
		loadWarmup   = flag.Duration("warmup", time.Second, "warmup stage length at half the peak rate (0 disables)")
		loadWorkers  = flag.Int("load-workers", 32, "load generator's bounded in-flight request pool")
		sloP99       = flag.Duration("slo-p99", 0, "fail unless every endpoint's client-side p99 stays within this (0 disables), e.g. -slo-p99=50ms")
	)
	flag.Parse()
	if !*all && !*ablations && !*extensions && !*kernel && !*schedLoad && !*load && *scen == "" && *scenCov == 0 && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	report := benchReport{Schema: "pragma-bench/v1", Small: *small}
	if *jsonOut {
		out = os.Stderr
	}
	run := func(name string, f func() error) {
		fmt.Fprintln(out, strings.Repeat("=", 64))
		fmt.Fprintln(out, name)
		fmt.Fprintln(out, strings.Repeat("=", 64))
		current = &runRecord{Name: name, Metrics: map[string]float64{}}
		start := time.Now()
		err := f()
		current.Seconds = time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		report.Runs = append(report.Runs, *current)
		current = nil
		fmt.Fprintln(out)
	}
	want := func(n int, sel *int) bool { return *all || *sel == n }

	if want(1, table) {
		run("Table 1. Accuracy of the Performance Functions", func() error { return printTable1() })
	}
	if want(2, table) {
		run("Table 2. Recommendations for mapping octants onto partitioning schemes", func() error { return printTable2() })
	}
	if want(3, table) {
		run("Table 3. Characterizing RM3D application run-time state", func() error { return printTable3() })
	}
	if want(4, table) {
		run("Table 4. Partitioner performance for RM3D on 64 processors", func() error { return printTable4(*small) })
	}
	if want(5, table) {
		run("Table 5. Improvement due to system-sensitive partitioning", func() error { return printTable5(*small) })
	}
	if want(2, figure) {
		run("Figure 2. Octant occupancy of the RM3D run", func() error { return printFigure2() })
	}
	if want(3, figure) {
		run("Figure 3. RM3D profile views at sampled time-steps", func() error { return printFigure3() })
	}
	if want(4, figure) {
		run("Figure 4. System-sensitive adaptive partitioning pipeline", func() error { return printFigure4() })
	}
	if *ablations {
		run("Ablations (DESIGN.md §6)", func() error { return printAblations(*small) })
	}
	if *extensions {
		run("Extension experiments", func() error { return printExtensions() })
	}
	if *kernel {
		run("PAC evaluation kernels (sequential reference vs CommPlan)", func() error { return printKernel() })
	}
	if *schedLoad {
		run("Scheduler load (tiny RM3D replays through the shared pool)", func() error { return printSched() })
	}
	if *scen != "" {
		run("Scenario replay: "+*scen, func() error { return printScenario(*scen) })
	}
	if *scenCov > 0 {
		run("Scenario corpus octant coverage", func() error { return printScenarioCoverage(*scenCov) })
	}
	if *load {
		run("Load: /sched serving surface (open loop)", func() error {
			return printLoad(*loadURL, *loadQPS, *loadWarmup, *loadDuration, *loadWorkers, *sloP99)
		})
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
	}
}

// printScenario replays one composed scenario under the adaptive
// meta-partitioner and prints declared versus observed octants per phase.
func printScenario(spec string) error {
	res, err := experiments.ScenarioReplay(spec, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d snapshots, %d partitioner switches, simulated %.1fs\n",
		res.Name, res.Snapshots, res.Switches, res.TotalTime)
	fmt.Fprintf(out, "%-24s %-12s %-9s %-9s %s\n", "Phase", "Snapshots", "Declared", "Observed", "Selections")
	for _, ph := range res.Phases {
		names := make([]string, 0, len(ph.Partitioners))
		for name := range ph.Partitioners {
			names = append(names, name)
		}
		sort.Strings(names)
		sel := ""
		for _, name := range names {
			if sel != "" {
				sel += " "
			}
			sel += fmt.Sprintf("%s:%d", name, ph.Partitioners[name])
		}
		fmt.Fprintf(out, "%-24s %3d-%-8d %-9s %-9s %s\n",
			ph.Phase, ph.Start, ph.End-1, ph.Expected, ph.Observed, sel)
	}
	metric("snapshots", float64(res.Snapshots))
	metric("switches", float64(res.Switches))
	metric("total_s", res.TotalTime)
	return nil
}

// printScenarioCoverage regenerates the EXPERIMENTS.md octant-coverage
// table: a seeded corpus of composed scenarios replayed under the strict
// Table-2 meta-partitioner, aggregated per octant.
func printScenarioCoverage(n int) error {
	res, err := experiments.ScenarioCoverage(1000, n)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "corpus: %d scenarios (seeds %d..%d), %d snapshots\n",
		res.Scenarios, res.BaseSeed, res.BaseSeed+int64(res.Scenarios)-1, res.Snapshots)
	fmt.Fprintf(out, "%-7s %-10s %-12s %-12s %s\n", "Octant", "Snapshots", "Recommended", "Conformance", "Selections")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%-7s %-10d %-12s %-12.3f %s\n",
			row.Octant, row.Snapshots, row.Recommended, row.Conformance, row.TopSelections())
		metric("octant_"+row.Octant+"_snapshots", float64(row.Snapshots))
		metric("octant_"+row.Octant+"_conformance", row.Conformance)
	}
	metric("scenarios", float64(res.Scenarios))
	metric("snapshots", float64(res.Snapshots))
	return nil
}

// printKernel regenerates the EXPERIMENTS.md kernel table: before/after
// wall time of each PAC evaluation primitive on the paper-scale hierarchy.
func printKernel() error {
	rows, err := experiments.KernelBench(5)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %-16s %-16s %s\n", "Kernel", "Reference (ms)", "CommPlan (ms)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(out, "%-14s %-16.3f %-16.3f %.1fx\n",
			r.Kernel, r.ReferenceSeconds*1e3, r.PlanSeconds*1e3, r.Speedup)
		metric(r.Kernel+"_reference_s", r.ReferenceSeconds)
		metric(r.Kernel+"_plan_s", r.PlanSeconds)
		metric(r.Kernel+"_speedup", r.Speedup)
	}
	return nil
}

// printSched runs the scheduler load benchmark: 64 tiny replays from 8
// tenants through a 4-worker pool, reporting throughput and mean per-phase
// latencies (the -json metrics back the BENCH_sched baseline narrative).
func printSched() error {
	res, err := experiments.SchedBench(4, 64, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workers %d, tenants %d, runs %d\n", res.Workers, res.Tenants, res.Runs)
	fmt.Fprintf(out, "wall %.2fs   throughput %.1f runs/s   mean queue %.3fs   mean run %.3fs\n",
		res.WallSeconds, res.RunsPerSecond, res.MeanQueueSeconds, res.MeanRunSeconds)
	metric("workers", float64(res.Workers))
	metric("runs", float64(res.Runs))
	metric("wall_s", res.WallSeconds)
	metric("runs_per_s", res.RunsPerSecond)
	metric("mean_queue_s", res.MeanQueueSeconds)
	metric("mean_run_s", res.MeanRunSeconds)
	return nil
}

func printExtensions() error {
	fmt.Fprintln(out, "-- Cross-application study (all three §2 driver applications) --")
	xRows, err := experiments.CrossApplication(8)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  %-10s %-34s %-10s %-22s %s\n", "app", "octant occupancy I..VIII", "adaptive", "best static", "switches")
	for _, r := range xRows {
		occ := ""
		for i, v := range r.Occupancy {
			if i > 0 {
				occ += " "
			}
			occ += fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(out, "  %-10s %-34s %8.2fs  %-10s %8.2fs  %d\n",
			r.Application, occ, r.AdaptiveTime, r.BestStatic, r.BestStaticTime, r.Switches)
	}

	fmt.Fprintln(out, "-- PF-based application runtime prediction (G-MISP+SP, reduced RM3D) --")
	pRows, err := experiments.PFRuntimePrediction(rm3dSmall())
	if err != nil {
		return err
	}
	for _, r := range pRows {
		kind := "interpolated"
		if r.Extrapolated {
			kind = "extrapolated"
		}
		fmt.Fprintf(out, "  procs %3d: predicted %8.2fs   simulated %8.2fs   error %5.2f%% (%s)\n",
			r.Procs, r.Predicted, r.Simulated, r.PercentError, kind)
	}
	return nil
}

func printAblations(small bool) error {
	cfg := experiments.DefaultTable4Config().Trace
	procs := 64
	linuxProcs := 16
	if small {
		cfg = experiments.SmallTable4Config().Trace
		procs = 16
		linuxProcs = 8
	}

	fmt.Fprintln(out, "-- Hilbert vs Morton ordering (SP-ISP) --")
	curveRows, err := experiments.AblationCurves(cfg, procs, 8)
	if err != nil {
		return err
	}
	for _, r := range curveRows {
		fmt.Fprintf(out, "  %-8s comm volume %10.0f   messages %8.1f   imbalance %6.2f%%\n",
			r.Curve, r.CommVolume, r.CommMessages, r.Imbalance)
	}

	fmt.Fprintln(out, "-- Greedy vs optimal sequence partitioning (G-MISP decomposition) --")
	splitRows, err := experiments.AblationSplitters(cfg, procs, 8)
	if err != nil {
		return err
	}
	for _, r := range splitRows {
		fmt.Fprintf(out, "  %-10s mean imbalance %6.2f%%   max %6.2f%%\n", r.Splitter, r.Imbalance, r.MaxImbalance)
	}

	fmt.Fprintln(out, "-- NWS forecaster suite (CPU availability series) --")
	fRows, err := experiments.AblationForecasters(16, 400, 2002)
	if err != nil {
		return err
	}
	for _, r := range fRows {
		fmt.Fprintf(out, "  %-20s MSE %.3e\n", r.Forecaster, r.MSE)
	}

	fmt.Fprintln(out, "-- Adaptive vs statics across processor counts --")
	counts := []int{16, 32, 64}
	if small {
		counts = []int{4, 8, 16}
	}
	pRows, err := experiments.AblationProcSweep(cfg, counts)
	if err != nil {
		return err
	}
	for _, r := range pRows {
		fmt.Fprintf(out, "  procs %3d: adaptive %8.2fs   best static %s %8.2fs   worst static %s %8.2fs   improvement vs worst %.1f%%\n",
			r.Procs, r.AdaptiveTime, r.BestStatic, r.BestStaticTime, r.WorstStatic, r.WorstStaticTime, r.AdaptiveVsWorstStatic)
	}

	fmt.Fprintln(out, "-- Capacity weight sensitivity (Table 5 scenario) --")
	wRows, err := experiments.AblationCapacityWeights(cfg, linuxProcs, 2002)
	if err != nil {
		return err
	}
	for _, r := range wRows {
		fmt.Fprintf(out, "  cpu %.2f mem %.2f bw %.2f: improvement %6.2f%%\n",
			r.Weights.CPU, r.Weights.Memory, r.Weights.Bandwidth, r.Improvement)
	}

	fmt.Fprintln(out, "-- Fail-stop failure injection (fault-tolerant G-MISP+SP) --")
	fRows2, err := experiments.AblationFailures(cfg, linuxProcs)
	if err != nil {
		return err
	}
	for _, r := range fRows2 {
		fmt.Fprintf(out, "  %-24s runtime %8.2fs   detections %d\n", r.Scenario, r.Runtime, r.Detected)
	}

	fmt.Fprintln(out, "-- Runtime-management styles on a loaded cluster --")
	mRows, err := experiments.AblationManagement(cfg, linuxProcs, 2002)
	if err != nil {
		return err
	}
	for _, r := range mRows {
		fmt.Fprintf(out, "  %-18s runtime %8.2fs   repartitions %d\n", r.Strategy, r.Runtime, r.Repartitions)
	}
	return nil
}

func printTable1() error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %-14s %-14s %s\n", "Data Size", "PF(total)", "Measured", "%Error")
	fmt.Fprintf(out, "%-12s %-14s %-14s %s\n", "(bytes)", "(s)", "end-to-end (s)", "")
	var maxErr float64
	for _, r := range rows {
		fmt.Fprintf(out, "%-12.0f %-14.4e %-14.4e %.3f\n", r.DataSize, r.Predicted, r.Measured, r.PercentError)
		if e := r.PercentError; e > maxErr {
			maxErr = e
		}
	}
	metric("max_percent_error", maxErr)
	return nil
}

func printTable2() error {
	fmt.Fprintf(out, "%-8s %s\n", "Octant", "Scheme")
	for _, r := range experiments.Table2() {
		fmt.Fprintf(out, "%-8s %s\n", r.Octant, strings.Join(r.Schemes, ", "))
	}
	return nil
}

func printTable3() error {
	rows, err := experiments.Table3()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-10s %-14s %s\n", "Time-step", "Octant State", "Partitioner")
	for _, r := range rows {
		fmt.Fprintf(out, "%-10d %-14s %s\n", r.TimeStep, r.Octant, r.Partitioner)
	}
	return nil
}

func printTable4(small bool) error {
	cfg := experiments.DefaultTable4Config()
	if small {
		cfg = experiments.SmallTable4Config()
	}
	rows, err := experiments.Table4(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %-12s %-18s %s\n", "Partitioner", "Run-time", "Max. Load", "AMR")
	fmt.Fprintf(out, "%-12s %-12s %-18s %s\n", "", "(sec)", "Imbalance (%)", "Efficiency (%)")
	var slowest float64
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s %-12.3f %-18.4f %.4f\n", r.Partitioner, r.Runtime, r.MaxImbalance, r.AMREfficiency)
		metric(r.Partitioner+"_runtime_s", r.Runtime)
		metric(r.Partitioner+"_max_imbalance_pct", r.MaxImbalance)
		if r.Runtime > slowest {
			slowest = r.Runtime
		}
	}
	for _, r := range rows {
		if r.Partitioner == "adaptive" {
			improvement := 100 * (slowest - r.Runtime) / slowest
			fmt.Fprintf(out, "\nadaptive improvement over the slowest partitioner: %.1f%%\n", improvement)
			metric("adaptive_improvement_pct", improvement)
		}
	}
	return nil
}

func printTable5(small bool) error {
	cfg := experiments.DefaultTable5Config()
	if small {
		cfg = experiments.SmallTable5Config()
	}
	rows, err := experiments.Table5(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-22s %s\n", "Number of Processors", "Percentage Improvement")
	for _, r := range rows {
		fmt.Fprintf(out, "%-22d %.1f%%   (default %.1fs -> system-sensitive %.1fs)\n",
			r.Procs, r.Improvement, r.DefaultTime, r.SystemSensitiveTime)
		metric(fmt.Sprintf("improvement_pct_procs_%d", r.Procs), r.Improvement)
	}
	return nil
}

func printFigure2() error {
	rows, err := experiments.Figure2()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-8s %-10s %-14s %-12s %s\n", "Octant", "Dynamics", "Dominance", "Pattern", "Visits")
	for _, r := range rows {
		dyn, dom, pat := "lower", "computation", "localized"
		if r.HigherDynamics {
			dyn = "higher"
		}
		if r.CommDominated {
			dom = "communication"
		}
		if r.Scattered {
			pat = "scattered"
		}
		fmt.Fprintf(out, "%-8s %-10s %-14s %-12s %d\n", r.Octant, dyn, dom, pat, r.Visits)
	}
	return nil
}

func printFigure3() error {
	profiles, err := experiments.Figure3()
	if err != nil {
		return err
	}
	for _, p := range profiles {
		fmt.Fprintln(out, p)
	}
	return nil
}

func printFigure4() error {
	res, err := experiments.Figure4()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-6s %-14s %-18s %s\n", "Node", "CPU available", "Relative capacity", "Assigned work share")
	for i := range res.Capacities {
		fmt.Fprintf(out, "%-6d %-14.3f %-18.3f %.3f\n", i, res.CPUAvailable[i], res.Capacities[i], res.WorkShares[i])
	}
	return nil
}
