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

// Rasterizations returns 0: production builds no cell raster, as the
// cell-by-cell oracle lives in the package's tests. It remains because
// bench/e2e reports it as partition.rasterizations_per_regrid, and goes
// with that metric.
func Rasterizations() uint64 { return 0 }

// metricPartitionSeconds times every candidate the shared ISP pipeline
// computes — decompose, curve-order, split — labeled by partitioner so
// placement-time cost is visible per algorithm fleet-wide.
var metricPartitionSeconds = telemetry.Default.HistogramVec(
	"pragma_partition_seconds",
	"Wall-clock duration of one partitioner invocation (decompose, order, split), by partitioner.",
	nil, "partitioner")

// metricCandidatesReused counts the candidates a PartitionPlan slot served
// from its memory of equal inputs instead of computing them.
var metricCandidatesReused = telemetry.Default.CounterVec(
	"pragma_partition_candidates_reused_total",
	"Partitioner candidates served from the plan's memory of equal inputs instead of computed, by partitioner.",
	"partitioner")

// metricPlanLevels counts the levels of every CommPlan build by how their
// contacts were found: copied from the source plan, which had the same
// boxes, or searched, fully or in part. Its children are resolved once, so
// a build allocates nothing for it.
var (
	metricPlanLevels = telemetry.Default.CounterVec(
		"pragma_partition_plan_levels_total",
		"Communication-plan levels built, by whether their contacts were copied from the previous plan or searched.",
		"geometry")
	metricPlanLevelsCopied   = metricPlanLevels.With("copied")
	metricPlanLevelsSearched = metricPlanLevels.With("searched")
)
