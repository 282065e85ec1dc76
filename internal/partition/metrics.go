package partition

import "github.com/pragma-grid/pragma/internal/telemetry"

// metricPACSeconds times the PAC evaluation kernel — one BuildCommPlan:
// the unit-box index plus the neighbour and parent search over it. This is
// the "partitioning-induced overhead" the runtime itself pays at every
// regrid for every candidate it evaluates, so it must stay cheap.
var metricPACSeconds = telemetry.Default.Histogram(
	"pragma_partition_pac_seconds",
	"Wall-clock duration of one PAC communication-plan build (unit-box index + neighbour and parent search).",
	nil)

// metricPartitionSeconds times every partitioner invocation through the
// shared ISP pipeline — decompose, curve-order, split — labeled by
// partitioner so placement-time cost is visible per algorithm fleet-wide.
var metricPartitionSeconds = telemetry.Default.HistogramVec(
	"pragma_partition_seconds",
	"Wall-clock duration of one partitioner invocation (decompose, order, split), by partitioner.",
	nil, "partitioner")
