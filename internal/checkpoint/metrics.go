package checkpoint

import "github.com/pragma-grid/pragma/internal/telemetry"

// Store-level instrumentation. Write latency is what a Save costs its
// caller: the append, plus a sync when the syncEvery bound fires in that
// Save. Sync latency has one sample per sync, whoever triggers it (a Save
// or Close); a log's first sync also includes the directory fsyncs and the
// unlinking of older logs. Its count is the number of syncs.
var (
	metricWriteSeconds = telemetry.Default.Histogram(
		"pragma_checkpoint_write_seconds",
		"Latency of appending one checkpoint record (one write; includes a sync when the sync bound fires).",
		telemetry.DefBuckets)
	metricSyncSeconds = telemetry.Default.Histogram(
		"pragma_checkpoint_sync_seconds",
		"Latency of one checkpoint log sync (fsync; a log's first sync adds the directory fsyncs and the unlinking of older logs).",
		telemetry.DefBuckets)
	metricBytesWritten = telemetry.Default.Counter(
		"pragma_checkpoint_bytes_written_total",
		"Total checkpoint record bytes written, including headers.")
	metricWrites = telemetry.Default.CounterVec(
		"pragma_checkpoint_writes_total",
		"Checkpoint save attempts by result.",
		"result")

	metricWritesOK     = metricWrites.With("ok")
	metricWritesFailed = metricWrites.With("error")
)
