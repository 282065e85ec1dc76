package fleet

import "github.com/pragma-grid/pragma/internal/telemetry"

// Fleet instrumentation. Placement verdicts and failovers are the signals
// an operator watches during an incident: dispatch verdicts say whether
// the fleet is accepting work, evictions+failovers say it is losing
// members, and local fallbacks say the router is riding out a partition on
// its own. All counters are far off the run hot path.
var (
	metricWorkers = telemetry.Default.Gauge(
		"pragma_fleet_workers",
		"Workers currently registered and not evicted.")
	metricReachableWorkers = telemetry.Default.Gauge(
		"pragma_fleet_reachable_workers",
		"Workers new work may be sent to: fresh heartbeat, closed breaker, not draining.")
	metricDispatches = telemetry.Default.CounterVec(
		"pragma_fleet_dispatches_total",
		"Dispatch attempts by verdict: ok, rejected (worker refused), timeout (ack deadline), send_error.",
		"verdict")
	metricRetries = telemetry.Default.Counter(
		"pragma_fleet_dispatch_retries_total",
		"Dispatch attempts beyond each placement's first.")
	metricFailovers = telemetry.Default.Counter(
		"pragma_fleet_failovers_total",
		"Runs re-placed after their worker was lost mid-run.")
	metricEvictions = telemetry.Default.CounterVec(
		"pragma_fleet_evictions_total",
		"Workers evicted, by cause: link_lost (control-network link torn down), heartbeat_silence.",
		"cause")
	metricLocalFallbacks = telemetry.Default.Counter(
		"pragma_fleet_local_fallbacks_total",
		"Attempts the router executed itself because no worker was placeable.")
	metricBreakerOpens = telemetry.Default.Counter(
		"pragma_fleet_breaker_opens_total",
		"Per-worker circuit breakers tripped open by consecutive dispatch failures.")
	metricHeartbeats = telemetry.Default.Counter(
		"pragma_fleet_heartbeats_total",
		"Worker capacity heartbeats absorbed by the router.")
	metricPlacementSeconds = telemetry.Default.Histogram(
		"pragma_fleet_placement_seconds",
		"Wall-clock time from a dispatch leaving the router to the worker's acknowledgment.",
		[]float64{.001, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30})

	dispatchOK       = metricDispatches.With("ok")
	dispatchRejected = metricDispatches.With("rejected")
	dispatchTimeout  = metricDispatches.With("timeout")
	dispatchSendErr  = metricDispatches.With("send_error")
)

// The causes of an eviction, as pragma_fleet_evictions_total's cause
// label spells them.
const (
	causeLinkLost = "link_lost"
	causeSilence  = "heartbeat_silence"
)
