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
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"github.com/pragma-grid/pragma"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "gridmon:", msg)
	flag.Usage()
	os.Exit(2)
}

func main() {
	var (
		nodes         = flag.Int("nodes", 8, "cluster size")
		seed          = flag.Int64("seed", 2002, "synthetic load seed")
		samples       = flag.Int("samples", 60, "number of monitoring samples")
		interval      = flag.Float64("interval", 5, "seconds between samples")
		telemetryAddr = flag.String("telemetry-addr", "", "serve /metrics and /healthz on this address")
		telemetryHold = flag.Duration("telemetry-hold", 0, "keep the telemetry endpoint alive this long after the report")
	)
	flag.Parse()
	if *nodes < 1 {
		usageError("need at least 1 node (-nodes)")
	}
	if *samples < 2 {
		usageError("need at least 2 samples (-samples)")
	}
	if *interval <= 0 {
		usageError(fmt.Sprintf("-interval must be positive, got %g", *interval))
	}

	var tsrv *pragma.TelemetryServer
	if *telemetryAddr != "" {
		var err error
		tsrv, err = pragma.ServeTelemetry(*telemetryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridmon:", err)
			os.Exit(1)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", tsrv.Addr())
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

	fmt.Printf("monitored %d nodes for %d samples (%.0fs apart)\n\n", *nodes, *samples, *interval)
	fmt.Printf("%-6s %-10s %-10s %-12s %-10s %-10s %-20s\n",
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
		fmt.Printf("%-6d %-10.3f %-10.3f %-12s %-10.4f %-10s %s\n",
			i, last[i].CPU, metas[i].Predict(), metas[i].Best().Name(), mae,
			fmt.Sprintf("%.1f%%", accuracy), top)
	}

	fmt.Printf("\nfleet forecast error quantiles: p50 %.4f   p95 %.4f   p99 %.4f (%d samples)\n",
		errDist.Quantile(0.50), errDist.Quantile(0.95), errDist.Quantile(0.99), errDist.Count())

	if _, err := monitor.Capacities(last, monitor.DefaultWeights()); err != nil {
		fmt.Fprintln(os.Stderr, "gridmon:", err)
		os.Exit(1)
	}
	if _, err := monitor.PredictiveCapacities(history, monitor.DefaultWeights()); err != nil {
		fmt.Fprintln(os.Stderr, "gridmon:", err)
		os.Exit(1)
	}

	// The capacity calculators publish per-node gauges; read the final
	// table back from the telemetry registry rather than from the return
	// values — the same numbers a scraper of /metrics would see.
	snap := pragma.Telemetry().Snapshot()
	reactive := gaugeByNode(snap, "pragma_monitor_relative_capacity")
	proactive := gaugeByNode(snap, "pragma_monitor_predicted_capacity")
	fmt.Printf("\n%-6s %-20s %-20s\n", "Node", "Reactive capacity", "Predictive capacity")
	for i := 0; i < *nodes; i++ {
		fmt.Printf("%-6d %-20.4f %-20.4f\n", i, reactive[i], proactive[i])
	}
	fmt.Println("\ncapacities are the weighted normalized CPU/memory/bandwidth sums of Fig. 4;")
	fmt.Println("the system-sensitive partitioner distributes workload proportionally to them.")

	// Partition latency: partition a short regrid sequence at the monitored
	// cluster's size so /metrics carries the partitioner latency
	// histograms, then report them the way a scraper would.
	if err := partitionActivity(*nodes); err != nil {
		fmt.Fprintln(os.Stderr, "gridmon:", err)
		os.Exit(1)
	}
	partHist := pragma.Telemetry().HistogramVec("pragma_partition_seconds", "", nil, "partitioner")
	fmt.Printf("\n%-12s %-8s %-10s %-10s %s\n", "Partitioner", "Calls", "p50 (ms)", "p95 (ms)", "Mean (ms)")
	for _, p := range partition.All() {
		h := partHist.With(p.Name())
		n := h.Count()
		if n == 0 {
			continue
		}
		fmt.Printf("%-12s %-8d %-10.3f %-10.3f %.3f\n", p.Name(), n,
			h.Quantile(0.50)*1e3, h.Quantile(0.95)*1e3, h.Sum()/float64(n)*1e3)
	}

	if tsrv != nil && *telemetryHold > 0 {
		fmt.Printf("holding telemetry endpoint for %s\n", *telemetryHold)
		time.Sleep(*telemetryHold)
	}
}

// partitionActivity partitions a short regrid sequence — a tracked level-2
// box drifting across four regrids of a small SAMR workload — with every
// ISP partitioner, populating pragma_partition_seconds.
func partitionActivity(nprocs int) error {
	build := func(shift int) (*samr.Hierarchy, error) {
		h, err := samr.NewHierarchy(samr.MakeBox(64, 32, 32), 2)
		if err != nil {
			return nil, err
		}
		if err := h.SetLevel(1, []samr.Box{
			{Lo: samr.Point{16, 0, 0}, Hi: samr.Point{96, 64, 64}},
		}); err != nil {
			return nil, err
		}
		if err := h.SetLevel(2, []samr.Box{
			{Lo: samr.Point{40 + 4*shift, 16, 16}, Hi: samr.Point{72 + 4*shift, 48, 48}},
		}); err != nil {
			return nil, err
		}
		if err := h.Validate(); err != nil {
			return nil, err
		}
		return h, nil
	}
	for shift := 0; shift < 4; shift++ {
		h, err := build(shift)
		if err != nil {
			return err
		}
		for _, p := range partition.All() {
			if _, err := p.Partition(h, samr.UniformWorkModel{}, nprocs); err != nil {
				return err
			}
		}
	}
	return nil
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
