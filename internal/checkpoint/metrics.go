package checkpoint

import "github.com/pragma-grid/pragma/internal/telemetry"

// Store-level instrumentation: write latency covers the whole durable
// append (write, fsync, and on a log's first record the directory fsyncs
// and the unlinking of older logs), so it reflects what a regrid boundary
// actually pays for durability, not just the write syscall.
var (
	metricWriteSeconds = telemetry.Default.Histogram(
		"pragma_checkpoint_write_seconds",
		"Latency of durably appending one checkpoint record (write+fsync; a log's first record adds the directory fsyncs).",
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
