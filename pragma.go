// Package pragma is an adaptive runtime infrastructure for grid
// applications, reproducing the system described in "Pragma: An
// Infrastructure for Runtime Management of Grid Applications" (Parashar &
// Hariri, IPDPS 2002).
//
// Pragma reactively and proactively manages the execution of dynamically
// adaptive (SAMR) applications: it characterizes the application's state
// with the octant approach, characterizes the system with NWS-style
// monitoring and predictive performance functions, selects partitioning
// strategies at runtime through a programmable policy knowledge base, and
// coordinates adaptation through an agent-based control network.
//
// The package is a facade over the implementation packages; the
// runnable entry point is the Runtime type:
//
//	trace, _ := pragma.GenerateRM3D(pragma.RM3DSmall())
//	rt := pragma.Runtime{
//		Trace:    trace,
//		Machine:  pragma.NewCluster(16),
//		Strategy: pragma.Adaptive(),
//	}
//	result, _ := rt.Execute()
//	fmt.Printf("simulated runtime: %.1fs\n", result.TotalTime)
package pragma

import (
	"io"
	"net"
	"net/http"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/astro"
	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/hydro"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/perf"
	"github.com/pragma-grid/pragma/internal/policy"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
	"github.com/pragma-grid/pragma/internal/sched"
	"github.com/pragma-grid/pragma/internal/stream"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the public names.
type (
	// Hierarchy is an SAMR grid hierarchy.
	Hierarchy = samr.Hierarchy
	// Snapshot is one regrid-step capture of a hierarchy.
	Snapshot = samr.Snapshot
	// Trace is an application adaptation trace.
	Trace = samr.Trace
	// WorkModel weighs grid regions by computational cost.
	WorkModel = samr.WorkModel

	// Octant is one of the eight application-state octants (Fig. 2).
	Octant = octant.Octant

	// Partitioner distributes a hierarchy across processors.
	Partitioner = partition.Partitioner
	// Assignment maps grid units to processors.
	Assignment = partition.Assignment
	// Quality is the five-component PAC metric of a partitioning.
	Quality = partition.Quality

	// Cluster is a simulated execution environment.
	Cluster = cluster.Cluster
	// CostModel converts grid quantities into seconds.
	CostModel = cluster.CostModel

	// PolicyBase is the programmable adaptation policy knowledge base.
	PolicyBase = policy.Base

	// Strategy decides how each regrid point is partitioned.
	Strategy = core.Strategy
	// RunResult is the execution profile of a replayed run.
	RunResult = core.RunResult

	// RM3DConfig parameterizes the synthetic RM3D application.
	RM3DConfig = rm3d.Config

	// MessageCenter is the CATALINA-style broker owning agent mailboxes.
	MessageCenter = agents.Center
	// MessagePort is the communication capability agents speak (in-process
	// Center or TCP Client).
	MessagePort = agents.Port
	// AgentClient is a TCP connection to a remote MessageCenter.
	AgentClient = agents.Client
	// ComponentAgent monitors one application component.
	ComponentAgent = agents.ComponentAgent
	// ADM is the application delegated manager.
	ADM = agents.ADM
	// Sensor samples one application or system attribute.
	Sensor = agents.Sensor
	// SensorFunc adapts a function to Sensor.
	SensorFunc = agents.SensorFunc
	// Actuator applies one adaptation mechanism.
	Actuator = agents.Actuator
	// ActuatorFunc adapts a function to Actuator.
	ActuatorFunc = agents.ActuatorFunc
	// EventRule publishes an event on a sensed threshold crossing.
	EventRule = agents.EventRule
	// Command is an actuation directive.
	Command = agents.Command
	// ADMEvent is a threshold event as seen by the ADM.
	ADMEvent = agents.Event
	// Template is an execution-environment blueprint.
	Template = agents.Template
	// TemplateRegistry stores and discovers templates.
	TemplateRegistry = agents.Registry

	// DialOption configures DialMessageCenter (reconnect, heartbeats,
	// deadlines, error handlers, chaos dialers).
	DialOption = agents.DialOption
	// CenterOption configures NewMessageCenter's wire behavior (liveness
	// eviction, write deadlines).
	CenterOption = agents.CenterOption
	// ChaosConfig parameterizes deterministic fault injection on control-
	// network connections (latency, jitter, drops, corruption).
	ChaosConfig = chaos.Config
	// AgentManagedStrategy is the agent-managed adaptation strategy with a
	// live control network and degraded-mode fallback: Adaptive
	// repartitions when its agents raise an event. It checkpoints its
	// event baseline, so WithResume continues it bit-identically; give
	// each run a strategy of its own.
	AgentManagedStrategy = core.AgentManaged

	// HydroGrid is a uniform grid of the built-in compressible-flow solver.
	HydroGrid = hydro.Grid
	// HydroState holds one cell's conserved variables.
	HydroState = hydro.State

	// PF is a performance function (§3.2).
	PF = perf.PF
	// SerialPF composes PFs of serially traversed components (Eq. 2).
	SerialPF = perf.Serial
	// SystemComponent is a measurable component of the PF example system.
	SystemComponent = perf.Component
)

// RM3DPaper returns the paper's RM3D configuration: 128x32x32 base grid,
// 3 levels of factor-2 refinement, regridding every 4 steps, 800+ coarse
// steps (202 trace snapshots).
func RM3DPaper() RM3DConfig { return rm3d.DefaultConfig() }

// RM3DSmall returns a reduced RM3D configuration suitable for quick runs
// and tests.
func RM3DSmall() RM3DConfig { return rm3d.SmallConfig() }

// GenerateRM3D produces the RM3D adaptation trace for a configuration.
func GenerateRM3D(cfg RM3DConfig) (*Trace, error) { return rm3d.GenerateTrace(cfg) }

// RenderProfile renders a snapshot's refinement structure as ASCII art
// (the content of the paper's Fig. 3).
func RenderProfile(s Snapshot) string { return rm3d.Profile(s) }

// Scenario aliases. The implementation lives in internal/scenario; see
// DESIGN.md §13 for the driver library and the octant-signature contract.
type (
	// ScenarioSpec is a composed synthetic workload: a grid envelope plus
	// a phase script of refinement drivers, generating a Trace exactly
	// like GenerateRM3D does.
	ScenarioSpec = scenario.Spec
	// ScenarioDriver is one phenomenon ingredient (moving shock, point
	// source, merging fronts, scattered activity, background noise).
	ScenarioDriver = scenario.Driver
)

// ParseScenario parses the compact scenario grammar, e.g.
// "dims=48x24x24;seed=7;shock:8,block:6,I:4" — see internal/scenario's
// ParseSpec for the full grammar. The same strings drive the -scenario
// flags of pragma-node replay and pragma-bench.
func ParseScenario(s string) (ScenarioSpec, error) { return scenario.ParseSpec(s) }

// GenerateScenario produces the adaptation trace of a composed scenario.
func GenerateScenario(spec ScenarioSpec) (*Trace, error) { return spec.Generate() }

// ScenarioForOctant returns the canonical driver engineered to occupy the
// given octant — every octant I-VIII has one.
func ScenarioForOctant(o Octant) ScenarioDriver { return scenario.ForOctant(o) }

// AstroConfig parameterizes the galaxy-formation and supernova application
// models (the other two driver applications of the paper's §2).
type AstroConfig = astro.Config

// AstroDefault returns the standard astro application configuration.
func AstroDefault() AstroConfig { return astro.DefaultConfig() }

// AstroSmall returns a reduced astro configuration for quick runs.
func AstroSmall() AstroConfig { return astro.SmallConfig() }

// GenerateGalaxy produces a hierarchical galaxy-formation adaptation trace
// with the given number of initial halos.
func GenerateGalaxy(cfg AstroConfig, halos int) (*Trace, error) {
	return astro.GenerateTrace(cfg, astro.NewGalaxy(cfg, halos))
}

// GenerateSupernova produces an aspherical supernova adaptation trace.
func GenerateSupernova(cfg AstroConfig) (*Trace, error) {
	return astro.GenerateTrace(cfg, astro.NewSupernova(cfg))
}

// NewHydroGrid allocates a grid for the built-in first-order Euler solver.
func NewHydroGrid(nx, ny, nz int, dx, gamma float64) (*HydroGrid, error) {
	return hydro.NewGrid(nx, ny, nz, dx, gamma)
}

// HydroConserved builds a conserved state from primitive variables.
func HydroConserved(gamma, rho, u, v, w, p float64) HydroState {
	return hydro.Conserved(gamma, rho, u, v, w, p)
}

// SodShockTube initializes the classic Sod problem along x.
func SodShockTube(g *HydroGrid) { hydro.SodX(g) }

// HydroTrace advances the solver and captures a hierarchy snapshot every
// regridEvery steps, using gradient error flagging and Berger–Rigoutsos
// clustering — an adaptation trace produced by a real solver.
func HydroTrace(g *HydroGrid, steps, regridEvery int, cfl, flagThreshold float64) (*Trace, error) {
	return hydro.TraceRun(g, steps, regridEvery, cfl, flagThreshold, samr.DefaultClusterOptions())
}

// WriteTrace serializes an adaptation trace as line-delimited JSON.
func WriteTrace(w io.Writer, tr *Trace) error { return samr.WriteTrace(w, tr) }

// ReadTrace deserializes a trace written by WriteTrace, validating every
// hierarchy.
func ReadTrace(r io.Reader) (*Trace, error) { return samr.ReadTrace(r) }

// UniformWork returns the default work model: every cell costs one unit,
// scaled by the level's MIT sub-cycling factor.
func UniformWork() WorkModel { return samr.UniformWorkModel{} }

// PartitionerByName returns a partitioner from the suite the paper
// evaluates: "SFC", "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP", "ISP",
// "EqualBlock" or "Heterogeneous".
func PartitionerByName(name string) (Partitioner, error) { return partition.ByName(name) }

// Partitioners returns the full ISP partitioner suite.
func Partitioners() []Partitioner { return partition.All() }

// EvaluateQuality computes the PAC quality metric of an assignment;
// prevH/prev may be nil when there is no previous placement.
func EvaluateQuality(h *Hierarchy, a *Assignment, prevH *Hierarchy, prev *Assignment) Quality {
	return partition.EvalQuality(h, a, prevH, prev, 0)
}

// Table2Policy returns the paper's Table 2 octant-to-partitioner policy
// knowledge base.
func Table2Policy() *PolicyBase { return policy.Table2() }

// ClassifyTrace characterizes every snapshot of a trace into octants.
func ClassifyTrace(tr *Trace) ([]octant.Characterization, error) {
	return octant.CharacterizeTrace(tr, octant.DefaultThresholds(), 3)
}

// NewCluster builds a homogeneous n-node machine with the calibrated
// SP2-like defaults used by the Table 4 experiments.
func NewCluster(n int) *Cluster { return cluster.SP2(n) }

// NewLinuxCluster builds the Table 5 machine: n workstation nodes on fast
// Ethernet with a deterministic synthetic background load.
func NewLinuxCluster(n int, loadSeed int64) *Cluster { return cluster.LinuxCluster(n, loadSeed) }

// Static returns a strategy applying one fixed partitioner at every regrid.
func Static(p Partitioner) Strategy { return core.Static{P: p} }

// Adaptive returns the application-sensitive meta-partitioning strategy
// with the quality guard enabled (see core.Adaptive).
func Adaptive() Strategy { return core.Adaptive{ImbalanceGuard: 20} }

// SystemSensitive returns the strategy of §4.6: capacity-weighted
// partitioning driven by resource monitoring.
func SystemSensitive() Strategy { return &core.SystemSensitive{} }

// NewMessageCenter creates an empty agent Message Center. Serve TCP
// clients with (*MessageCenter).Serve to emulate a multi-node control
// network. Options arm server-side robustness: WithHeartbeatTimeout
// evicts silent clients, WithCenterWriteTimeout bounds wire writes.
func NewMessageCenter(opts ...CenterOption) *MessageCenter { return agents.NewCenter(opts...) }

// DialMessageCenter connects to a Message Center served over TCP. Options
// harden the link: WithReconnect replays registrations and buffered sends
// after an outage, WithHeartbeat detects dead brokers, WithErrorHandler
// receives asynchronous failures, WithDialer plugs in ChaosDialer.
func DialMessageCenter(addr string, opts ...DialOption) (*AgentClient, error) {
	return agents.Dial(addr, opts...)
}

// Client/Center option constructors, re-exported from internal/agents.
var (
	WithDialer             = agents.WithDialer
	WithReconnect          = agents.WithReconnect
	WithBackoff            = agents.WithBackoff
	WithHeartbeat          = agents.WithHeartbeat
	WithOpTimeout          = agents.WithOpTimeout
	WithErrorHandler       = agents.WithErrorHandler
	WithSeed               = agents.WithSeed
	WithHeartbeatTimeout   = agents.WithHeartbeatTimeout
	WithCenterWriteTimeout = agents.WithCenterWriteTimeout
	WithCenterErrorHandler = agents.WithCenterErrorHandler
)

// ChaosDialer returns a TCP dialer injecting deterministic faults; pass it
// to DialMessageCenter via WithDialer to chaos-test a control network.
func ChaosDialer(cfg ChaosConfig) func(addr string) (net.Conn, error) { return chaos.Dialer(cfg) }

// NewAgentManagedOn returns the §4.7 agent-managed adaptation strategy
// over caller-supplied ports: node agents gate repartitioning on threshold
// events instead of repartitioning at every regrid. The ADM registers on
// admPort and one component agent per node port (e.g. TCP clients of a
// served MessageCenter). Set the strategy's Health field —
// typically over AgentClient.Degraded — to enable degraded-mode fallback
// when the control network partitions.
func NewAgentManagedOn(admPort MessagePort, nodePorts []MessagePort, imbalanceEventPct float64) (*AgentManagedStrategy, error) {
	return core.NewAgentManagedOn(admPort, nodePorts, imbalanceEventPct)
}

// NewComponentAgent registers a component agent on the port with its
// sensors, actuators and threshold event rules.
func NewComponentAgent(id string, port MessagePort, sensors []Sensor, actuators []Actuator, rules []EventRule) (*ComponentAgent, error) {
	return agents.NewComponentAgent(id, port, sensors, actuators, rules)
}

// NewADM registers an application delegated manager on the port, driven by
// the given policy knowledge base.
func NewADM(id string, port MessagePort, kb *PolicyBase) (*ADM, error) {
	return agents.NewADM(id, port, kb)
}

// NewTemplateRegistry creates an empty execution-environment template
// registry.
func NewTemplateRegistry() *TemplateRegistry { return agents.NewRegistry() }

// PFExampleSystem returns the paper's PC1 -> switch -> PC2 pipeline used
// to illustrate performance functions (§3.2, Table 1).
func PFExampleSystem(noise float64) []SystemComponent { return perf.ExampleSystem(noise) }

// FitPerformanceFunctions measures every component of a pipeline at the
// given data sizes, fits one neural PF per component, and returns the
// composed end-to-end PF (Eq. 2) plus the per-component PFs.
func FitPerformanceFunctions(comps []SystemComponent, sizes []float64, samplesPerSize int, seed int64) (SerialPF, []PF, error) {
	return perf.FitComponentPFs(comps, sizes, samplesPerSize, seed)
}

// Runtime executes an application's adaptation trace on a simulated
// machine under a partitioning strategy — the top-level use of Pragma.
type Runtime struct {
	// Trace is the application adaptation trace to replay (required).
	Trace *Trace
	// Machine is the execution environment (required).
	Machine *Cluster
	// Strategy picks partitionings at regrid points; nil means Adaptive().
	Strategy Strategy
	// NProcs restricts the run to the first n processors (0 = all).
	NProcs int
	// WorkModel supplies per-snapshot region weights; nil means uniform.
	WorkModel func(idx int) WorkModel
	// Cost overrides the machine cost model (zero value = defaults).
	Cost CostModel
}

// RunOption configures one Execute call (checkpointing, resume).
type RunOption func(*core.RunConfig)

// WithCheckpointDir persists run state to dir at regrid boundaries, one
// CRC-verified record each. A record is visible once it is written: it
// survives the death of the process. It is durable once the log syncs,
// which happens when Execute returns and otherwise within a second of the
// previous sync; an interrupted run syncs before Execute returns (see
// DESIGN.md §9). A later Execute with WithResume continues from the
// newest valid record.
func WithCheckpointDir(dir string) RunOption {
	return func(c *core.RunConfig) { c.CheckpointDir = dir }
}

// WithCheckpointEvery checkpoints after every k-th regrid interval
// instead of every interval.
func WithCheckpointEvery(k int) RunOption {
	return func(c *core.RunConfig) { c.CheckpointEvery = k }
}

// WithResume restarts from the latest valid checkpoint in the checkpoint
// directory; corrupted checkpoints are skipped, and with no usable one the
// run starts from the beginning. The final result is identical to an
// uninterrupted run's.
func WithResume() RunOption {
	return func(c *core.RunConfig) { c.Resume = true }
}

// WithInterrupt stops the run once ch is closed, at the boundary of the
// first regrid it has not begun to decide: the next one, or up to three
// later for a run that decides ahead (core.RunConfig.Interrupt). With
// checkpointing configured the loop state is written and synced first,
// and Execute fails with an error wrapping ErrRunInterrupted (or with the
// sync's error if it fails). This is the graceful-drain hook (the
// Scheduler wires it for every run it manages).
func WithInterrupt(ch <-chan struct{}) RunOption {
	return func(c *core.RunConfig) { c.Interrupt = ch }
}

// ErrRunInterrupted is the sentinel an interrupted Execute fails with
// (test with errors.Is); the run is resumable via WithResume.
var ErrRunInterrupted = core.ErrInterrupted

// Execute replays the trace and returns the execution profile.
func (r Runtime) Execute(opts ...RunOption) (*RunResult, error) {
	strat := r.Strategy
	if strat == nil {
		strat = Adaptive()
	}
	cfg := core.RunConfig{
		Machine:   r.Machine,
		Cost:      r.Cost,
		NProcs:    r.NProcs,
		WorkModel: r.WorkModel,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.Run(r.Trace, strat, cfg)
}

// Telemetry aliases. The implementation lives in internal/telemetry; see
// DESIGN.md §10 for the metric naming conventions and the trace schema.
type (
	// TelemetryRegistry is a concurrency-safe metrics registry (counters,
	// gauges, histograms) with Prometheus text exposition.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer is a running telemetry HTTP endpoint.
	TelemetryServer = telemetry.Server
	// TelemetrySnapshot is a point-in-time JSON view of a registry.
	TelemetrySnapshot = telemetry.Snapshot
)

// Telemetry returns the process-global metrics registry every instrumented
// layer (agents, core, checkpoint, monitor) records into.
func Telemetry() *TelemetryRegistry { return telemetry.Default }

// ServeTelemetry starts an HTTP server on addr exposing the global registry
// and tracer: /metrics (Prometheus text), /metrics.json (snapshot),
// /healthz and /readyz (always ok), and /debug/pragma (regrid traces as
// JSONL). Close the returned server when done.
func ServeTelemetry(addr string) (*TelemetryServer, error) {
	return telemetry.Serve(addr, telemetry.Default, telemetry.DefaultTracer)
}

// RegisterQueueDepthGauge exposes a Message Center's aggregate mailbox
// depth as the pragma_agents_queue_depth gauge, sampled at scrape time.
func RegisterQueueDepthGauge(c *MessageCenter) { agents.RegisterQueueDepthGauge(c) }

// Scheduler aliases. The implementation lives in internal/sched; see
// DESIGN.md §12 for the admission, fairness and drain semantics.
type (
	// Scheduler is the multi-tenant run scheduler: many concurrent runs
	// through one bounded worker pool, with admission control, weighted
	// max-min fairness across tenants, checkpoint-based preemption,
	// per-run isolation, and graceful drain.
	Scheduler = sched.Scheduler
	// SchedulerConfig sizes a Scheduler (pool, queue and tenant limits).
	SchedulerConfig = sched.Config
	// SchedulerRunSpec describes one run to execute: the Runtime inputs
	// plus the checkpoint configuration that makes the run drainable.
	SchedulerRunSpec = sched.RunSpec
	// SchedulerSubmission is one admission attempt (tenant, priority,
	// fair-share weight, spec).
	SchedulerSubmission = sched.SubmitRequest
	// SchedulerSpecBuilder maps submit-request wire parameters to run specs
	// for the HTTP API.
	SchedulerSpecBuilder = sched.SpecBuilder
)

// ErrSchedulerDraining is the error Submit rejects a run with once the
// Scheduler has started draining (test with errors.Is).
var ErrSchedulerDraining = sched.ErrDraining

// NewScheduler starts a run scheduler with cfg.Workers pool goroutines.
// Stop it with Drain (graceful: in-flight runs checkpoint at their next
// regrid boundary and report as resumable) or Close.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return sched.New(cfg) }

// NewSchedulerHandler exposes a scheduler's submit/status/runs/stats/drain
// endpoints under /sched/, designed to be mounted next to the telemetry
// routes; build maps submit parameters to run specs (nil disables submit).
func NewSchedulerHandler(s *Scheduler, build SchedulerSpecBuilder) http.Handler {
	return sched.Handler(s, build)
}

// Run-event streaming aliases. The implementation lives in
// internal/stream; see DESIGN.md §15. A hub broadcasts per-run lifecycle
// and regrid-cycle events to bounded subscribers; wire one into
// SchedulerConfig.Events and clients can follow runs over /sched/events
// (Server-Sent Events) instead of polling /sched/status.
type (
	// RunEventHub fans events out to subscribers without ever blocking
	// the publisher; slow subscribers drop events and are marked lagging.
	RunEventHub = stream.Hub
	// RunEventHubConfig sizes a hub's per-subscriber buffers and per-run
	// replay history.
	RunEventHubConfig = stream.Config
)

// NewRunEventHub creates an event hub (zero config = sensible defaults).
func NewRunEventHub(cfg RunEventHubConfig) *RunEventHub { return stream.NewHub(cfg) }
