package core

import (
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// Runtime-management instrumentation. Regrids are infrequent relative to
// BSP steps, so labeled-child resolution at regrid time is acceptable;
// everything else is a pre-resolved handle.
var (
	metricRegridSeconds = telemetry.Default.Histogram(
		"pragma_core_regrid_seconds",
		"Wall-clock critical path of one regrid: the wait for its partitioning decision (the decision itself when the run decides in order, what is left of it when the run decides ahead), then PAC evaluation and interval bookkeeping, excluding the simulated BSP steps.",
		nil)
	metricPartitionerSelected = telemetry.Default.CounterVec(
		"pragma_core_partitioner_selected_total",
		"Policy-base partitioner selections keyed by the octant that drove them.",
		"partitioner", "octant")
	metricSwitches = telemetry.Default.Counter(
		"pragma_core_partitioner_switches_total",
		"Partitioner changes between consecutive regrids.")
	metricRegrids = telemetry.Default.Counter(
		"pragma_core_regrids_total",
		"Regrid cycles executed.")
	metricSteps = telemetry.Default.Counter(
		"pragma_core_steps_total",
		"Coarse BSP steps simulated.")
	metricRecoveries = telemetry.Default.Counter(
		"pragma_core_recoveries_total",
		"Mid-interval failure recoveries (work re-assigned off a dead node).")
	metricDegradedTransitions = telemetry.Default.Counter(
		"pragma_core_degraded_transitions_total",
		"Entries into degraded mode (control network reported down after being up).")
	metricResumes = telemetry.Default.Counter(
		"pragma_checkpoint_resumes_total",
		"Replays resumed from a valid checkpoint.")
	metricInterrupts = telemetry.Default.Counter(
		"pragma_core_interrupts_total",
		"Runs stopped at a regrid boundary through RunConfig.Interrupt (graceful drain).")

	// The PAC components of the most recent regrid — the partitioning
	// quality metric the runtime steers on (imbalance, communication,
	// data movement, overhead).
	metricPACImbalance = telemetry.Default.Gauge(
		"pragma_core_pac_imbalance_percent",
		"Load imbalance of the current assignment, percent.")
	metricPACCommVolume = telemetry.Default.Gauge(
		"pragma_core_pac_comm_volume",
		"Ghost-communication volume of the current assignment, faces.")
	metricPACCommMessages = telemetry.Default.Gauge(
		"pragma_core_pac_comm_messages",
		"Ghost-communication message count of the current assignment.")
	metricPACMigration = telemetry.Default.Gauge(
		"pragma_core_pac_migration_fraction",
		"Fraction of cells that moved processors at the last regrid.")
	metricPACOverhead = telemetry.Default.Gauge(
		"pragma_core_pac_overhead_ratio",
		"Partitioning-overhead proxy: assignment units per hierarchy box.")
)

// setPACGauges publishes the quality of the assignment the run costed last,
// at a regrid or a mid-interval recovery.
func setPACGauges(q partition.Quality) {
	metricPACImbalance.Set(q.Imbalance)
	metricPACCommVolume.Set(q.CommVolume)
	metricPACCommMessages.Set(q.CommMessages)
	metricPACMigration.Set(q.Migration)
	metricPACOverhead.Set(q.Overhead)
}
