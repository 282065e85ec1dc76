// Command pragma-bench regenerates the tables and figures of the paper's
// evaluation (Parashar & Hariri, IPDPS 2002) and prints them in the paper's
// format. The output is deterministic; testdata/paper.golden pins it.
//
// Usage:
//
//	pragma-bench -all            # every table and figure (about 1.5 s)
//	pragma-bench -table 4        # one table
//	pragma-bench -figure 3       # one figure
//	pragma-bench -table 4 -small # reduced configuration
package main

import (
	"encoding/json"
	"errors"
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

// printer writes one regeneration's human-readable table to out and its
// key metrics to rec.
type printer struct {
	out io.Writer
	rec *runRecord
}

func (p *printer) metric(key string, v float64) { p.rec.Metrics[key] = v }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run runs one invocation and returns its exit code: 2 for a usage error,
// 1 for a regeneration that failed. The tables go to stdout, or to stderr
// under -json, where stdout carries exactly one JSON object.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pragma-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table      = fs.Int("table", 0, "regenerate one table (1-5)")
		figure     = fs.Int("figure", 0, "regenerate one figure (2-4)")
		all        = fs.Bool("all", false, "regenerate every table and figure")
		small      = fs.Bool("small", false, "use the reduced configuration for Tables 4 and 5")
		ablations  = fs.Bool("ablations", false, "run the DESIGN.md ablation studies")
		extensions = fs.Bool("extensions", false, "run the extension experiments (cross-application study, PF runtime prediction)")
		scen       = fs.String("scenario", "", "replay a composed scenario spec (internal/scenario grammar) and report declared vs observed octants")
		scenCov    = fs.Int("scenario-coverage", 0, "replay a corpus of this many seeded scenarios and print the octant-coverage table (EXPERIMENTS.md uses 100)")
		jsonOut    = fs.Bool("json", false, "write one JSON object with per-run wall time and key metrics to stdout (tables go to stderr)")

		load         = fs.Bool("load", false, "run the open-loop load harness against the /sched serving surface")
		loadURL      = fs.String("url", "", "load target base URL (empty: an in-process scheduler is started)")
		loadQPS      = fs.Float64("qps", 200, "peak load rate in requests/second")
		loadDuration = fs.Duration("duration", 5*time.Second, "measured load stage length")
		loadWarmup   = fs.Duration("warmup", time.Second, "warmup stage length at half the peak rate (0 disables)")
		loadWorkers  = fs.Int("load-workers", 32, "load generator's bounded in-flight request pool")
		sloP99       = fs.Duration("slo-p99", 0, "fail unless every endpoint's client-side p99 stays within this (0 disables), e.g. -slo-p99=50ms")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if !*all && !*ablations && !*extensions && !*load && *scen == "" && *scenCov == 0 && *table == 0 && *figure == 0 {
		fs.Usage()
		return 2
	}
	type job struct {
		name  string
		print func(*printer) error
	}
	var jobs []job
	add := func(name string, print func(*printer) error) { jobs = append(jobs, job{name, print}) }
	want := func(n int, sel *int) bool { return *all || *sel == n }

	if want(1, table) {
		add("Table 1. Accuracy of the Performance Functions", (*printer).printTable1)
	}
	if want(2, table) {
		add("Table 2. Recommendations for mapping octants onto partitioning schemes", (*printer).printTable2)
	}
	if want(3, table) {
		add("Table 3. Characterizing RM3D application run-time state", (*printer).printTable3)
	}
	if want(4, table) {
		add("Table 4. Partitioner performance for RM3D on 64 processors", func(p *printer) error { return p.printTable4(*small) })
	}
	if want(5, table) {
		add("Table 5. Improvement due to system-sensitive partitioning", func(p *printer) error { return p.printTable5(*small) })
	}
	if want(2, figure) {
		add("Figure 2. Octant occupancy of the RM3D run", (*printer).printFigure2)
	}
	if want(3, figure) {
		add("Figure 3. RM3D profile views at sampled time-steps", (*printer).printFigure3)
	}
	if want(4, figure) {
		add("Figure 4. System-sensitive adaptive partitioning pipeline", (*printer).printFigure4)
	}
	if *ablations {
		add("Ablations (DESIGN.md §6)", func(p *printer) error { return p.printAblations(*small) })
	}
	if *extensions {
		add("Extension experiments", (*printer).printExtensions)
	}
	if *scen != "" {
		add("Scenario replay: "+*scen, func(p *printer) error { return p.printScenario(*scen) })
	}
	if *scenCov > 0 {
		add("Scenario corpus octant coverage", func(p *printer) error { return p.printScenarioCoverage(*scenCov) })
	}
	if *load {
		add("Load: /sched serving surface (open loop)", func(p *printer) error {
			return p.printLoad(*loadURL, *loadQPS, *loadWarmup, *loadDuration, *loadWorkers, *sloP99)
		})
	}

	out := stdout
	if *jsonOut {
		out = stderr
	}
	report := benchReport{Schema: "pragma-bench/v1", Small: *small}
	for _, j := range jobs {
		fmt.Fprintln(out, strings.Repeat("=", 64))
		fmt.Fprintln(out, j.name)
		fmt.Fprintln(out, strings.Repeat("=", 64))
		p := &printer{out: out, rec: &runRecord{Name: j.name, Metrics: map[string]float64{}}}
		start := time.Now()
		err := j.print(p)
		p.rec.Seconds = time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", j.name, err)
			return 1
		}
		report.Runs = append(report.Runs, *p.rec)
		fmt.Fprintln(out)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 1
		}
	}
	return 0
}

// printScenario replays one composed scenario under the adaptive
// meta-partitioner and prints declared versus observed octants per phase.
func (p *printer) printScenario(spec string) error {
	res, err := experiments.ScenarioReplay(spec, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%s: %d snapshots, %d partitioner switches, simulated %.1fs\n",
		res.Name, res.Snapshots, res.Switches, res.TotalTime)
	fmt.Fprintf(p.out, "%-24s %-12s %-9s %-9s %s\n", "Phase", "Snapshots", "Declared", "Observed", "Selections")
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
		fmt.Fprintf(p.out, "%-24s %3d-%-8d %-9s %-9s %s\n",
			ph.Phase, ph.Start, ph.End-1, ph.Expected, ph.Observed, sel)
	}
	p.metric("snapshots", float64(res.Snapshots))
	p.metric("switches", float64(res.Switches))
	p.metric("total_s", res.TotalTime)
	return nil
}

// printScenarioCoverage regenerates the EXPERIMENTS.md octant-coverage
// table: a seeded corpus of composed scenarios replayed under the strict
// Table-2 meta-partitioner, aggregated per octant.
func (p *printer) printScenarioCoverage(n int) error {
	res, err := experiments.ScenarioCoverage(1000, n)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "corpus: %d scenarios (seeds %d..%d), %d snapshots\n",
		res.Scenarios, res.BaseSeed, res.BaseSeed+int64(res.Scenarios)-1, res.Snapshots)
	fmt.Fprintf(p.out, "%-7s %-10s %-12s %-12s %s\n", "Octant", "Snapshots", "Recommended", "Conformance", "Selections")
	for _, row := range res.Rows {
		fmt.Fprintf(p.out, "%-7s %-10d %-12s %-12.3f %s\n",
			row.Octant, row.Snapshots, row.Recommended, row.Conformance, row.TopSelections())
		p.metric("octant_"+row.Octant+"_snapshots", float64(row.Snapshots))
		p.metric("octant_"+row.Octant+"_conformance", row.Conformance)
	}
	p.metric("scenarios", float64(res.Scenarios))
	p.metric("snapshots", float64(res.Snapshots))
	return nil
}

func (p *printer) printExtensions() error {
	fmt.Fprintln(p.out, "-- Cross-application study (all three §2 driver applications) --")
	xRows, err := experiments.CrossApplication(8)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "  %-10s %-34s %-10s %-22s %s\n", "app", "octant occupancy I..VIII", "adaptive", "best static", "switches")
	for _, r := range xRows {
		occ := ""
		for i, v := range r.Occupancy {
			if i > 0 {
				occ += " "
			}
			occ += fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(p.out, "  %-10s %-34s %8.2fs  %-10s %8.2fs  %d\n",
			r.Application, occ, r.AdaptiveTime, r.BestStatic, r.BestStaticTime, r.Switches)
	}

	fmt.Fprintln(p.out, "-- PF-based application runtime prediction (G-MISP+SP, reduced RM3D) --")
	pRows, err := experiments.PFRuntimePrediction(rm3dSmall())
	if err != nil {
		return err
	}
	for _, r := range pRows {
		kind := "interpolated"
		if r.Extrapolated {
			kind = "extrapolated"
		}
		fmt.Fprintf(p.out, "  procs %3d: predicted %8.2fs   simulated %8.2fs   error %5.2f%% (%s)\n",
			r.Procs, r.Predicted, r.Simulated, r.PercentError, kind)
	}
	return nil
}

func (p *printer) printAblations(small bool) error {
	cfg := experiments.DefaultTable4Config().Trace
	procs := 64
	linuxProcs := 16
	if small {
		cfg = experiments.SmallTable4Config().Trace
		procs = 16
		linuxProcs = 8
	}

	fmt.Fprintln(p.out, "-- Hilbert vs Morton ordering (SP-ISP) --")
	curveRows, err := experiments.AblationCurves(cfg, procs, 8)
	if err != nil {
		return err
	}
	for _, r := range curveRows {
		fmt.Fprintf(p.out, "  %-8s comm volume %10.0f   messages %8.1f   imbalance %6.2f%%\n",
			r.Curve, r.CommVolume, r.CommMessages, r.Imbalance)
	}

	fmt.Fprintln(p.out, "-- Greedy vs optimal sequence partitioning (G-MISP decomposition) --")
	splitRows, err := experiments.AblationSplitters(cfg, procs, 8)
	if err != nil {
		return err
	}
	for _, r := range splitRows {
		fmt.Fprintf(p.out, "  %-10s mean imbalance %6.2f%%   max %6.2f%%\n", r.Splitter, r.Imbalance, r.MaxImbalance)
	}

	fmt.Fprintln(p.out, "-- NWS forecaster suite (CPU availability series) --")
	fRows, err := experiments.AblationForecasters(16, 400, 2002)
	if err != nil {
		return err
	}
	for _, r := range fRows {
		fmt.Fprintf(p.out, "  %-20s MSE %.3e\n", r.Forecaster, r.MSE)
	}

	fmt.Fprintln(p.out, "-- Adaptive vs statics across processor counts --")
	counts := []int{16, 32, 64}
	if small {
		counts = []int{4, 8, 16}
	}
	pRows, err := experiments.AblationProcSweep(cfg, counts)
	if err != nil {
		return err
	}
	for _, r := range pRows {
		fmt.Fprintf(p.out, "  procs %3d: adaptive %8.2fs   best static %s %8.2fs   worst static %s %8.2fs   improvement vs worst %.1f%%\n",
			r.Procs, r.AdaptiveTime, r.BestStatic, r.BestStaticTime, r.WorstStatic, r.WorstStaticTime, r.AdaptiveVsWorstStatic)
	}

	fmt.Fprintln(p.out, "-- Capacity weight sensitivity (Table 5 scenario) --")
	wRows, err := experiments.AblationCapacityWeights(cfg, linuxProcs, 2002)
	if err != nil {
		return err
	}
	for _, r := range wRows {
		fmt.Fprintf(p.out, "  cpu %.2f mem %.2f bw %.2f: improvement %6.2f%%\n",
			r.Weights.CPU, r.Weights.Memory, r.Weights.Bandwidth, r.Improvement)
	}

	fmt.Fprintln(p.out, "-- Fail-stop failure injection (fault-tolerant G-MISP+SP) --")
	fRows2, err := experiments.AblationFailures(cfg, linuxProcs)
	if err != nil {
		return err
	}
	for _, r := range fRows2 {
		fmt.Fprintf(p.out, "  %-24s runtime %8.2fs   detections %d\n", r.Scenario, r.Runtime, r.Detected)
	}

	fmt.Fprintln(p.out, "-- Runtime-management styles on a loaded cluster --")
	mRows, err := experiments.AblationManagement(cfg, linuxProcs, 2002)
	if err != nil {
		return err
	}
	for _, r := range mRows {
		fmt.Fprintf(p.out, "  %-18s runtime %8.2fs   repartitions %d\n", r.Strategy, r.Runtime, r.Repartitions)
	}
	return nil
}

func (p *printer) printTable1() error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-12s %-14s %-14s %s\n", "Data Size", "PF(total)", "Measured", "%Error")
	fmt.Fprintf(p.out, "%-12s %-14s %-14s %s\n", "(bytes)", "(s)", "end-to-end (s)", "")
	var maxErr float64
	for _, r := range rows {
		fmt.Fprintf(p.out, "%-12.0f %-14.4e %-14.4e %.3f\n", r.DataSize, r.Predicted, r.Measured, r.PercentError)
		if e := r.PercentError; e > maxErr {
			maxErr = e
		}
	}
	p.metric("max_percent_error", maxErr)
	return nil
}

func (p *printer) printTable2() error {
	fmt.Fprintf(p.out, "%-8s %s\n", "Octant", "Scheme")
	for _, r := range experiments.Table2() {
		fmt.Fprintf(p.out, "%-8s %s\n", r.Octant, strings.Join(r.Schemes, ", "))
	}
	return nil
}

func (p *printer) printTable3() error {
	rows, err := experiments.Table3()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-10s %-14s %s\n", "Time-step", "Octant State", "Partitioner")
	for _, r := range rows {
		fmt.Fprintf(p.out, "%-10d %-14s %s\n", r.TimeStep, r.Octant, r.Partitioner)
	}
	return nil
}

func (p *printer) printTable4(small bool) error {
	cfg := experiments.DefaultTable4Config()
	if small {
		cfg = experiments.SmallTable4Config()
	}
	rows, err := experiments.Table4(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-12s %-12s %-18s %s\n", "Partitioner", "Run-time", "Max. Load", "AMR")
	fmt.Fprintf(p.out, "%-12s %-12s %-18s %s\n", "", "(sec)", "Imbalance (%)", "Efficiency (%)")
	var slowest float64
	for _, r := range rows {
		fmt.Fprintf(p.out, "%-12s %-12.3f %-18.4f %.4f\n", r.Partitioner, r.Runtime, r.MaxImbalance, r.AMREfficiency)
		p.metric(r.Partitioner+"_runtime_s", r.Runtime)
		p.metric(r.Partitioner+"_max_imbalance_pct", r.MaxImbalance)
		if r.Runtime > slowest {
			slowest = r.Runtime
		}
	}
	for _, r := range rows {
		if r.Partitioner == "adaptive" {
			improvement := 100 * (slowest - r.Runtime) / slowest
			fmt.Fprintf(p.out, "\nadaptive improvement over the slowest partitioner: %.1f%%\n", improvement)
			p.metric("adaptive_improvement_pct", improvement)
		}
	}
	return nil
}

func (p *printer) printTable5(small bool) error {
	cfg := experiments.DefaultTable5Config()
	if small {
		cfg = experiments.SmallTable5Config()
	}
	rows, err := experiments.Table5(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-22s %s\n", "Number of Processors", "Percentage Improvement")
	for _, r := range rows {
		fmt.Fprintf(p.out, "%-22d %.1f%%   (default %.1fs -> system-sensitive %.1fs)\n",
			r.Procs, r.Improvement, r.DefaultTime, r.SystemSensitiveTime)
		p.metric(fmt.Sprintf("improvement_pct_procs_%d", r.Procs), r.Improvement)
	}
	return nil
}

func (p *printer) printFigure2() error {
	rows, err := experiments.Figure2()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-8s %-10s %-14s %-12s %s\n", "Octant", "Dynamics", "Dominance", "Pattern", "Visits")
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
		fmt.Fprintf(p.out, "%-8s %-10s %-14s %-12s %d\n", r.Octant, dyn, dom, pat, r.Visits)
	}
	return nil
}

func (p *printer) printFigure3() error {
	profiles, err := experiments.Figure3()
	if err != nil {
		return err
	}
	for _, prof := range profiles {
		fmt.Fprintln(p.out, prof)
	}
	return nil
}

func (p *printer) printFigure4() error {
	res, err := experiments.Figure4()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-6s %-14s %-18s %s\n", "Node", "CPU available", "Relative capacity", "Assigned work share")
	for i := range res.Capacities {
		fmt.Fprintf(p.out, "%-6d %-14.3f %-18.3f %.3f\n", i, res.CPUAvailable[i], res.Capacities[i], res.WorkShares[i])
	}
	return nil
}
