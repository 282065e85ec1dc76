// Command e2e is the repository's end-to-end benchmark: four closed-loop
// workloads over the whole path from a submitted run (or a core.Run call)
// to a verified result, seven end-to-end metrics per workload measured
// with tracing off, and a traced pass that attributes the time to layers
// from outside the program. See bench/README.md.
//
//	go run ./bench/e2e -workload rm3d64_adaptive -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error. Any output that differs from its reference is a failed
// operation and a non-zero exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// outDir holds everything the benchmark writes: span files and the
// checkpoint workload's directories (real disk, real fsync).
var outDir = filepath.Join("bench", "out")

// setupRepeats is how many times a run builds its inputs, references and
// servers; setup_s is the median, which a single slow start does not move.
const setupRepeats = 3

// busyWorkers is the pool size the service workloads derive from the
// host: one core is left to the HTTP server and the load generator.
func busyWorkers() int { return max(1, runtime.NumCPU()-1) }

// bench is one set-up workload instance.
type bench interface {
	// drive executes whole passes over the workload's inputs in a closed
	// loop: at least minPasses, then more until d has elapsed. A non-nil
	// tracer makes it a traced pass.
	drive(minPasses int, d time.Duration, t *tracer) (*phase, error)
	// warmPasses is how many passes run before anything is measured.
	warmPasses() int
	// layers fills in the workload's per-layer metrics from a traced
	// phase.
	layers(t *tracer, traced *phase, out map[string]float64) error
	close() error
}

type workloadDef struct {
	name  string
	setup func(seed int64) (bench, error)
}

var workloads = []workloadDef{
	{"rm3d64_adaptive", func(seed int64) (bench, error) { return setupReplay("rm3d64_adaptive", seed, false) }},
	{"rm3d64_ckpt_resume", func(seed int64) (bench, error) { return setupReplay("rm3d64_ckpt_resume", seed, true) }},
	{"sched_corpus", func(seed int64) (bench, error) { return setupService("sched_corpus", seed, false) }},
	{"fleet_tiny", func(seed int64) (bench, error) { return setupService("fleet_tiny", seed, true) }},
}

// phase is what one driven stretch of a workload yields: totals over all
// of it, and the same quantities cut into windows.
type phase struct {
	runs, failed int
	wall         time.Duration
	use          usage
	runMS        []float64 // submit (or core.Run call) to verified result
	opMS         []float64 // the workload's op: regrid cycle, or status fetch
	simSum       float64   // sum of RunResult.TotalTime
	window       int       // runs the closed loop keeps outstanding
	calib        time.Duration
	// samples are further per-run observations the service client makes
	// (milliseconds unless the key says otherwise).
	samples map[string][]float64
	// counts are deltas over the phase of the program's exact counters:
	// telemetry counters and histogram sums/counts by name (labels
	// summed), and partition.Rasterizations as "rasterizations".
	counts map[string]float64
	notes  []string

	windows []window
	start   time.Time
	before  usage
	// The open window's start: the time, the process's CPU time, the host's
	// steal counter, and how many runs and ops the phase had by then.
	openAt            time.Time
	openCPU           time.Duration
	stolen, ticks     float64
	openRuns, openOps int
}

// window is a stretch of a phase about a second long — one run of the
// replay workloads — with the share of the host's CPU time the hypervisor
// gave to someone else while it lasted. The sandbox's neighbours take
// 10-40% of the CPU for seconds at a time, several times a minute, and a
// two-thread program loses more than that share (a barrier waits for the
// thread that was descheduled). Steal is a reading of the host, not of
// the program, so the gated metrics are taken over the windows it left
// alone; see steady.
type window struct {
	runs        int
	wall, cpu   time.Duration
	runMS, opMS []float64
	stealPct    float64
}

func newPhase(outstanding int) *phase {
	ph := &phase{window: outstanding, calib: calibrate()}
	ph.start, ph.before = time.Now(), readUsage()
	ph.openAt, ph.openCPU = ph.start, ph.before.cpu
	ph.stolen, ph.ticks = hostSteal()
	return ph
}

// cut closes the open window, if any run completed in it, and opens the
// next.
func (ph *phase) cut() {
	if len(ph.runMS) == ph.openRuns {
		return
	}
	now, cpu := time.Now(), cpuTime()
	stolen, ticks := hostSteal()
	w := window{
		runs:  len(ph.runMS) - ph.openRuns,
		wall:  now.Sub(ph.openAt),
		cpu:   cpu - ph.openCPU,
		runMS: ph.runMS[ph.openRuns:],
		opMS:  ph.opMS[ph.openOps:],
	}
	if ticks > ph.ticks {
		w.stealPct = 100 * (stolen - ph.stolen) / (ticks - ph.ticks)
	}
	ph.windows = append(ph.windows, w)
	ph.openAt, ph.openCPU, ph.stolen, ph.ticks = now, cpu, stolen, ticks
	ph.openRuns, ph.openOps = len(ph.runMS), len(ph.opMS)
}

// finish closes the last window and the phase's totals.
func (ph *phase) finish() {
	ph.cut()
	ph.wall = time.Since(ph.start)
	ph.use = readUsage().sub(ph.before)
}

// quietSteal is the steal a window may show and still count as left
// alone: two clock ticks of a one-second window on two CPUs.
const quietSteal = 1.0

// steady sums the phase's windows that the host left alone (steal at most
// quietSteal percent). When those are fewer than a third of all windows
// the host was never quiet for long, and the third with the least steal
// stands in.
func (ph *phase) steady() window {
	ws := append([]window(nil), ph.windows...)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].stealPct < ws[j].stealPct })
	keep := (len(ws) + 2) / 3
	for keep < len(ws) && ws[keep].stealPct <= quietSteal {
		keep++
	}
	var sum window
	for _, w := range ws[:keep] {
		sum.runs += w.runs
		sum.wall += w.wall
		sum.cpu += w.cpu
		sum.runMS = append(sum.runMS, w.runMS...)
		sum.opMS = append(sum.opMS, w.opMS...)
		sum.stealPct = max(sum.stealPct, w.stealPct)
	}
	return sum
}

func (w window) runsPerS() float64 { return float64(w.runs) / w.wall.Seconds() }

// note records why an operation failed; the first few are printed.
func (ph *phase) note(format string, args ...any) {
	if len(ph.notes) < 10 {
		ph.notes = append(ph.notes, fmt.Sprintf(format, args...))
	}
}

func (ph *phase) sample(key string, v float64) {
	if ph.samples == nil {
		ph.samples = make(map[string][]float64)
	}
	ph.samples[key] = append(ph.samples[key], v)
}

// measure brackets b.drive with readings of the program's own counters.
func measure(b bench, minPasses int, d time.Duration, t *tracer) (*phase, error) {
	before, rastBefore := counterTotals(telemetry.Default.Snapshot()), partition.Rasterizations()
	ph, err := b.drive(minPasses, d, t)
	if err != nil {
		return nil, err
	}
	ph.counts = counterTotals(telemetry.Default.Snapshot())
	for k, v := range before {
		ph.counts[k] -= v
	}
	ph.counts["rasterizations"] = float64(partition.Rasterizations() - rastBefore)
	return ph, nil
}

// counterTotals flattens a registry snapshot to name -> value, summing a
// family's labelled series; histograms appear as name_sum and name_count.
// A series with one label is also kept by itself, as name{value}.
func counterTotals(s telemetry.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range s.Metrics {
		for _, series := range m.Series {
			switch m.Kind {
			case "histogram":
				out[m.Name+"_sum"] += series.Sum
				out[m.Name+"_count"] += float64(series.Count)
			case "counter":
				out[m.Name] += series.Value
				if len(series.Labels) == 1 {
					for _, v := range series.Labels {
						out[m.Name+"{"+v+"}"] = series.Value
					}
				}
			}
		}
	}
	return out
}

// result is one invocation's outcome in the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	calibMS   float64                // -selfcheck reads it off the child's summary line
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the seven gated metrics from an untraced phase: what
// the clock decides from its steady windows, what it does not (bytes
// allocated, simulated time) from all of its whole passes, so that these
// two repeat exactly for a seed.
func endToEnd(ph *phase, steady window, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          setupS,
		"runs_per_s":       steady.runsPerS(),
		"run_p50_ms":       median(steady.runMS),
		"op_p50_ms":        median(steady.opMS),
		"cpu_ms_per_run":   ms(steady.cpu) / float64(steady.runs),
		"alloc_mb_per_run": float64(ph.use.allocB) / (1 << 20) / float64(ph.runs),
		"sim_runtime_s":    ph.simSum / float64(ph.runs),
	}
}

// runWorkload sets the workload up, warms it, and measures it: with
// trace off one untraced phase of the given length, with trace on an
// untraced and a traced phase of half the length each.
func runWorkload(w workloadDef, seed int64, seconds float64, trace bool) (*result, error) {
	var b bench
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if b, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()
	if _, err := b.drive(b.warmPasses(), 0, nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	d := time.Duration(seconds * float64(time.Second))
	res := &result{Metrics: make(map[string]metricValue)}
	if !trace {
		ph, err := measure(b, 1, d, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.add(ph)
		steady := ph.steady()
		values := endToEnd(ph, steady, median(setups))
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		fmt.Fprintf(os.Stderr, "%s seed %d: %d runs in %.2fs, %d failed; %d of them in the %.2fs the host left alone (steal <= %.1f%%); calib %.1f ms, little ratio %.3f\n",
			w.name, seed, ph.runs, ph.wall.Seconds(), ph.failed, steady.runs, steady.wall.Seconds(), steady.stealPct,
			ms(ph.calib), littleRatio(ph.window, steady.runsPerS(), mean(steady.runMS)/1000))
		return res, nil
	}

	untraced, err := measure(b, 1, d/2, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	t := newTracer()
	traced, err := measure(b, 1, d/2, t)
	if err != nil {
		return nil, fmt.Errorf("%s: traced: %w", w.name, err)
	}
	res.add(untraced)
	res.add(traced)
	values := make(map[string]float64)
	if err := b.layers(t, traced, values); err != nil {
		return nil, fmt.Errorf("%s: layers: %w", w.name, err)
	}
	runs := float64(traced.runs)
	values["runtime.gc_cycles_per_run"] = float64(traced.use.gcCycles) / runs
	values["runtime.gc_pause_ms_per_run"] = ms(traced.use.gcPause) / runs
	values["runtime.rss_peak_mb"] = float64(traced.use.maxRSSKB) / 1024
	values["client.run_p95_ms"] = tail(traced.runMS, 0.95)
	calm, calmTraced := untraced.steady(), traced.steady()
	values["client.little_ratio"] = littleRatio(traced.window, calmTraced.runsPerS(), mean(calmTraced.runMS)/1000)
	values["client.calib_ms"] = ms(traced.calib)
	values["trace.overhead_pct"] = 100 * (calm.runsPerS() - calmTraced.runsPerS()) / calm.runsPerS()
	for _, m := range perLayerMetrics {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	path := filepath.Join(outDir, w.name+".trace.jsonl")
	if err := writeJSONL(path, t.rec.snapshot()); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d untraced + %d traced runs, %d failed, spans in %s\n",
		w.name, seed, untraced.runs, traced.runs, res.Failed, path)
	return res, nil
}

func (r *result) add(ph *phase) {
	r.Attempted += ph.runs
	r.Failed += ph.failed
	for _, n := range ph.notes {
		fmt.Fprintln(os.Stderr, "FAILED:", n)
	}
	r.Correct = r.Failed == 0
}

// layerShares prints, largest first, what share of totalMS each layer's
// self time is — the "dominant layer" table of bench/README.md.
func layerShares(what string, totalMS float64, layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(os.Stderr, "layer self time, share of %s (%.2f ms):\n", what, totalMS)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %10.3f ms  %5.1f%%\n", n, layers[n], 100*layers[n]/totalMS)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: rm3d64_adaptive, rm3d64_ckpt_resume, sched_corpus or fleet_tiny")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = also make a traced pass and print the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice in alternating order and fail if two values of an end-to-end metric differ by more than its bound")
	flag.Parse()

	if *selfcheck {
		if !selfCheck(*seed, *seconds) {
			os.Exit(1)
		}
		return
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		res, err := runWorkload(w, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		for _, m := range sortedMetrics(res.Metrics) {
			fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
		}
		fmt.Fprintf(os.Stderr, "  %-36s %14d\n  %-36s %14d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *name)
	flag.Usage()
	os.Exit(2)
}

func sortedMetrics(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
