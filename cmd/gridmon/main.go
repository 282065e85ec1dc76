// Command gridmon demonstrates Pragma's system characterization component:
// it monitors a simulated heterogeneous cluster, runs the NWS-style
// forecaster suite over each node's CPU availability, and prints the
// relative capacities the system-sensitive partitioner would use (Fig. 4).
//
// Usage:
//
//	gridmon -nodes 8 -samples 60 -interval 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"github.com/pragma-grid/pragma"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run runs one invocation and returns its exit code: 2 for a usage error,
// 1 for a failed report.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes         = fs.Int("nodes", 8, "cluster size")
		seed          = fs.Int64("seed", 2002, "synthetic load seed")
		samples       = fs.Int("samples", 60, "number of monitoring samples")
		interval      = fs.Float64("interval", 5, "seconds between samples")
		telemetryAddr = fs.String("telemetry-addr", "", "serve /metrics and /healthz on this address")
		telemetryHold = fs.Duration("telemetry-hold", 0, "keep the telemetry endpoint alive this long after the report")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageError := func(msg string) int {
		fmt.Fprintln(stderr, "gridmon:", msg)
		fs.Usage()
		return 2
	}
	if *nodes < 1 {
		return usageError("need at least 1 node (-nodes)")
	}
	if *samples < 2 {
		return usageError("need at least 2 samples (-samples)")
	}
	if *interval <= 0 {
		return usageError(fmt.Sprintf("-interval must be positive, got %g", *interval))
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gridmon:", err)
		return 1
	}

	var tsrv *pragma.TelemetryServer
	if *telemetryAddr != "" {
		var err error
		tsrv, err = pragma.ServeTelemetry(*telemetryAddr)
		if err != nil {
			return fail(err)
		}
		defer tsrv.Close()
		fmt.Fprintf(stdout, "telemetry on http://%s/metrics\n", tsrv.Addr())
	}

	machine := cluster.LinuxCluster(*nodes, *seed)
	sensor := monitor.ClusterSensor{Cluster: machine}

	// forecastErr accumulates each node's one-step-ahead absolute forecast
	// error: before absorbing a new reading, compare it against what the
	// meta-forecaster predicted from the history so far.
	history := make([][]monitor.Reading, 0, *samples)
	metas := make([]*monitor.Meta, *nodes)
	forecastErr := make([]float64, *nodes)
	// errDist pools every node's per-sample absolute error so the summary
	// can report fleet-wide error quantiles, not just per-node means. The
	// buckets cover the [0,1] CPU-availability scale.
	errDist := pragma.Telemetry().Histogram("pragma_forecast_abs_error",
		"one-step-ahead absolute CPU forecast error across all nodes",
		[]float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64})
	for i := range metas {
		metas[i] = monitor.NewMeta()
	}
	for s := 0; s < *samples; s++ {
		t := float64(s) * *interval
		readings := sensor.Sample(t)
		history = append(history, readings)
		for i, r := range readings {
			if s > 0 {
				e := math.Abs(metas[i].Predict() - r.CPU)
				forecastErr[i] += e
				errDist.Observe(e)
			}
			metas[i].Update(r.CPU)
		}
	}

	fmt.Fprintf(stdout, "monitored %d nodes for %d samples (%.0fs apart)\n\n", *nodes, *samples, *interval)
	fmt.Fprintf(stdout, "%-6s %-10s %-10s %-12s %-10s %-10s %-20s\n",
		"Node", "CPU now", "Forecast", "Best model", "MAE", "Accuracy", "Forecaster MSEs")
	last := history[len(history)-1]
	for i := 0; i < *nodes; i++ {
		mses := metas[i].MSE()
		names := make([]string, 0, len(mses))
		for n := range mses {
			names = append(names, n)
		}
		sort.Slice(names, func(a, b int) bool { return mses[names[a]] < mses[names[b]] })
		top := fmt.Sprintf("%s=%.2e %s=%.2e", names[0], mses[names[0]], names[1], mses[names[1]])
		mae := forecastErr[i] / float64(*samples-1)
		accuracy := 100 * (1 - mae)
		if accuracy < 0 {
			accuracy = 0
		}
		fmt.Fprintf(stdout, "%-6d %-10.3f %-10.3f %-12s %-10.4f %-10s %s\n",
			i, last[i].CPU, metas[i].Predict(), metas[i].Best().Name(), mae,
			fmt.Sprintf("%.1f%%", accuracy), top)
	}

	fmt.Fprintf(stdout, "\nfleet forecast error quantiles: p50 %.4f   p95 %.4f   p99 %.4f (%d samples)\n",
		errDist.Quantile(0.50), errDist.Quantile(0.95), errDist.Quantile(0.99), *nodes*(*samples-1))

	if _, err := monitor.Capacities(last, monitor.DefaultWeights()); err != nil {
		return fail(err)
	}
	if _, err := monitor.PredictiveCapacities(history, monitor.DefaultWeights()); err != nil {
		return fail(err)
	}

	// The capacity calculators publish per-node gauges; read the final
	// table back from the telemetry registry rather than from the return
	// values — the same numbers a scraper of /metrics would see.
	snap := pragma.Telemetry().Snapshot()
	reactive := gaugeByNode(snap, "pragma_monitor_relative_capacity")
	proactive := gaugeByNode(snap, "pragma_monitor_predicted_capacity")
	fmt.Fprintf(stdout, "\n%-6s %-20s %-20s\n", "Node", "Reactive capacity", "Predictive capacity")
	for i := 0; i < *nodes; i++ {
		fmt.Fprintf(stdout, "%-6d %-20.4f %-20.4f\n", i, reactive[i], proactive[i])
	}
	fmt.Fprintln(stdout, "\ncapacities are the weighted normalized CPU/memory/bandwidth sums of Fig. 4;")
	fmt.Fprintln(stdout, "the system-sensitive partitioner distributes workload proportionally to them.")

	if tsrv != nil && *telemetryHold > 0 {
		fmt.Fprintf(stdout, "holding telemetry endpoint for %s\n", *telemetryHold)
		time.Sleep(*telemetryHold)
	}
	return 0
}

// gaugeByNode extracts a per-node gauge family from a registry snapshot
// into a node-index-keyed map.
func gaugeByNode(snap pragma.TelemetrySnapshot, name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range snap.Find(name) {
		if node, err := strconv.Atoi(s.Labels["node"]); err == nil {
			out[node] = s.Value
		}
	}
	return out
}
