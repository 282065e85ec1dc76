package monitor

import (
	"strconv"

	"github.com/pragma-grid/pragma/internal/telemetry"
)

// Per-node gauges keyed by node index. Cardinality is bounded by the
// cluster size, which the simulator fixes up front.
var (
	metricRelativeCapacity = telemetry.Default.GaugeVec(
		"pragma_monitor_relative_capacity",
		"Relative capacity of each node from the last Capacities call (sums to 1).",
		"node")
	metricPredictedCapacity = telemetry.Default.GaugeVec(
		"pragma_monitor_predicted_capacity",
		"Relative capacity of each node from the last Forecasts.Capacities call.",
		"node")
)

func setCapacityGauges(vec *telemetry.GaugeVec, caps []float64) {
	for i, c := range caps {
		vec.With(strconv.Itoa(i)).Set(c)
	}
}
