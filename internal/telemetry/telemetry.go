// Package telemetry is Pragma's observability subsystem: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms, all with optional labels), a ring-buffered tracer that
// records each regrid cycle as a structured trace, exposition in the
// Prometheus text format and as a JSON snapshot, and an HTTP server
// wiring the three together (/metrics, /healthz, /debug/pragma).
//
// The paper's first component is system characterization — NWS-style
// monitoring the runtime consumes to steer adaptation. This package turns
// the same lens on the runtime itself, so regrid latency, partitioner
// selections, agent queue depths and checkpoint cost are observable while
// a run is live.
//
// Hot-path cost is the design constraint: once a handle is resolved
// (Counter, Gauge, Histogram — directly or via a Vec's With), increments
// and observations are single atomic operations with zero allocations.
// Resolving a labeled child allocates; instrumented code resolves its
// children once at package init and holds them.
//
// The package has no dependencies outside the standard library and no
// dependencies on the rest of the repo, so every layer can import it.
package telemetry

// Default is the process-wide registry the runtime's instrumentation
// registers on; cmd/pragma-node and cmd/gridmon expose it over HTTP.
var Default = NewRegistry()

// DefaultTracer is the process-wide trace ring (most recent 64 regrid
// cycles); /debug/pragma dumps it.
var DefaultTracer = NewTracer(64)

// DefBuckets are general-purpose duration buckets in seconds, from 100µs
// to ~100s — wide enough for both hot BSP steps and slow regrids.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}
