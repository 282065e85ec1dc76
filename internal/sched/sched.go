// Package sched is Pragma's multi-tenant run scheduler: it executes many
// concurrent core.Run replays through one bounded shared worker pool
// instead of one engine per process.
//
// The paper's ADM/agent architecture manages a single application per
// runtime. Serving heavy traffic needs the complementary layer grid
// schedulers put in front of per-run engines: admission control that
// rejects work the pool cannot absorb, a priority queue with weighted
// per-tenant fairness so one tenant's flood cannot starve the rest,
// per-run isolation so a panic or lost-worker failure in one run never
// disturbs another, and graceful drain — stop admitting, interrupt
// in-flight runs at their next regrid boundary so they checkpoint through
// the internal/checkpoint path, and hand back a set of resumable run
// records.
//
// Fairness is weighted max-min with proportional allocation: every tenant
// carries a weight (submit param weight=, default 1), the scheduler
// charges each completed run attempt's cost — completed regrid intervals,
// or wall-clock seconds for runs that report none — divided by the weight
// as normalized service, and the queue always dispatches the waiting
// tenant with the least normalized service in the highest busy band. On
// top of it sits checkpoint-based preemption: a submit from a tenant far
// below its fair share (or from a higher band) that finds the pool
// saturated fires the most over-share running run's interrupt channel;
// that run checkpoints at its next regrid boundary exactly as a drain
// would, transitions to StatePreempted, and is requeued resumable with
// its service credit intact while the preemptor takes the worker.
//
// This is the serving stack's only run lifecycle (DESIGN.md §12). What
// executes an attempt is behind the Executor seam: Local (core.Run in this
// process — pragma-node sched, every fleet worker's pool) or the fleet
// router's remote dispatch.
//
// Concurrency model: admitted runs wait in a fairQueue (priority bands,
// weighted max-min tenant selection) and start, one goroutine per attempt,
// while fewer attempts are in flight than the executor's capacity;
// goroutines scale with the capacity, never with the backlog. Each attempt
// gets its own interrupt channel, closed either by a preemption (that one
// run yields) or by Drain (every in-flight run checkpoints, the backlog is
// cancelled, the attempts end).
package sched

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/stream"
)

// Admission errors. Submit returns one of these (wrapped with context);
// test with errors.Is. They are the backpressure surface: a caller seeing
// ErrSaturated or ErrTenantLimit should retry later, one seeing
// ErrDraining should go to another instance.
var (
	// ErrSaturated means the pool and the admission queue are both full.
	ErrSaturated = errors.New("sched: saturated, admission queue full")
	// ErrTenantLimit means this tenant already holds its maximum share of
	// queued plus running work.
	ErrTenantLimit = errors.New("sched: tenant over admission limit")
	// ErrDraining means the scheduler no longer admits work.
	ErrDraining = errors.New("sched: draining, not admitting")
)

// ErrLost is what Executor.Execute returns (wrapped) for an attempt lost
// with its run intact, such as on a vanished worker: the run is requeued
// the way a preempted one is.
var ErrLost = errors.New("sched: attempt lost, run requeued")

// Config sizes a Scheduler.
type Config struct {
	// Workers is the capacity of the Local executor New builds: the number
	// of runs executing concurrently (default 4). A scheduler built with
	// NewWithExecutor takes its capacity from the executor instead.
	Workers int
	// QueueLimit bounds the admitted-but-waiting backlog (default 64).
	// Submissions beyond it fail with ErrSaturated.
	QueueLimit int
	// TenantLimit bounds one tenant's queued plus running work
	// (0 = unlimited). Submissions beyond it fail with ErrTenantLimit.
	TenantLimit int
	// Events, when non-nil, receives every run lifecycle transition and
	// regrid cycle as stream events, so clients can watch runs over SSE
	// instead of hammering /sched/status. Publishing never blocks: a slow
	// subscriber drops events and is marked lagging, costing the
	// scheduler nothing (see internal/stream).
	Events *stream.Hub
	// PreemptRatio tunes checkpoint-based preemption. When a submit finds
	// every worker busy, the scheduler picks the running run whose tenant
	// is most over-share (lowest band first, then highest normalized
	// service) and interrupts it if the submitter outranks it — a higher
	// priority band, or the same band with the victim's normalized service
	// more than PreemptRatio times the submitter's (default 2). The victim
	// checkpoints at its next regrid boundary and is requeued resumable.
	// Negative disables preemption entirely; runs then yield workers only
	// by finishing.
	PreemptRatio float64
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.PreemptRatio == 0 {
		c.PreemptRatio = 2
	}
}

// keepFinished bounds retained terminal run records; the oldest are
// evicted so a long-lived server's memory stays flat.
const keepFinished = 1024

// Tenant weight bounds. A submission's Weight is clamped into
// [MinWeight, MaxWeight]; zero means "keep the tenant's current weight"
// (DefaultWeight for a tenant that never declared one).
const (
	DefaultWeight = 1.0
	MinWeight     = 0.125
	MaxWeight     = 64.0
)

// clampWeight normalizes a submitted weight: zero or negative (and NaN)
// fall back to DefaultWeight, the rest clamp into [MinWeight, MaxWeight].
func clampWeight(w float64) float64 {
	if !(w > 0) { // catches <= 0 and NaN
		return DefaultWeight
	}
	if w < MinWeight {
		return MinWeight
	}
	if w > MaxWeight {
		return MaxWeight
	}
	return w
}

// RunSpec describes one run to execute: the inputs core.Run needs plus the
// checkpoint configuration that makes the run drainable. Each submission
// needs its own Strategy value — strategies carry per-run state.
type RunSpec struct {
	Trace     *samr.Trace
	Strategy  core.Strategy
	Machine   *cluster.Cluster
	NProcs    int
	Cost      cluster.CostModel
	WorkModel func(idx int) samr.WorkModel
	// CheckpointDir, when set, persists run state at regrid boundaries —
	// and at drain time, which is what makes a drained run resumable.
	CheckpointDir   string
	CheckpointEvery int
	// Resume continues from the latest valid checkpoint in CheckpointDir
	// (how a run drained by a previous instance is picked back up).
	Resume bool
	// Weight is the weight= submit parameter, parsed with the rest of the
	// spec; the HTTP handler passes it on as SubmitRequest.Weight.
	Weight float64
	// Wire, when set, is the submission's serializable description — the
	// query parameters a SpecBuilder would rebuild this spec from. The
	// HTTP handler fills it automatically; programmatic submitters that
	// want their queued runs to survive a Snapshot/Restore roll must set
	// it themselves (runs without Wire are skipped by Snapshot).
	Wire url.Values
}

func (s *RunSpec) validate() error {
	if s.Trace == nil || len(s.Trace.Snapshots) == 0 {
		return fmt.Errorf("sched: spec has no trace")
	}
	if s.Strategy == nil {
		return fmt.Errorf("sched: spec has no strategy")
	}
	if s.Machine == nil {
		return fmt.Errorf("sched: spec has no machine")
	}
	return nil
}

// SubmitRequest is one admission attempt.
type SubmitRequest struct {
	// Tenant attributes the run for fairness and per-tenant limits
	// ("" is itself a tenant).
	Tenant string
	// Priority orders admitted runs: higher runs first; equal priorities
	// are served by weighted max-min fairness across tenants.
	Priority int
	// Weight sets the tenant's fair-share weight: under saturation a
	// weight-3 tenant completes ~3x the work of a weight-1 tenant in the
	// same band. Zero keeps the tenant's current weight (DefaultWeight if
	// it never declared one); non-zero values are clamped into
	// [MinWeight, MaxWeight] and become the tenant's weight for all its
	// queued and future runs.
	Weight float64
	// Spec is the run to execute.
	Spec RunSpec
	// Payload, when non-nil, is the run description for an Executor that
	// does not take RunSpecs (the fleet router's WireSpec), handed to every
	// attempt unread. Of Spec the lifecycle then uses only CheckpointDir
	// and Resume.
	Payload any
	// CheckpointRoot, when set and Spec.CheckpointDir is empty, makes the
	// run checkpoint under <root>/<run-id>.
	CheckpointRoot string
}

// State is a run's lifecycle phase.
type State string

// Run states. Queued, Running and Preempted are transient; the rest are
// terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePreempted State = "preempted" // yielded its slot at a regrid boundary; requeued resumable
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateDrained   State = "drained"   // interrupted at a regrid boundary; checkpointed if configured
	StateCancelled State = "cancelled" // still queued when the drain began; never started
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateDrained || s == StateCancelled
}

// RunStatus is the externally visible snapshot of one run.
type RunStatus struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// Weight is the tenant's fair-share weight as of this run's admission.
	Weight float64 `json:"weight"`
	State  State   `json:"state"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`

	// QueueSeconds and RunSeconds are filled as the phases complete.
	QueueSeconds float64 `json:"queueSeconds"`
	RunSeconds   float64 `json:"runSeconds"`

	// Preemptions counts how many times this run was interrupted to hand
	// its slot to an under-share or higher-band submission; each one
	// checkpointed the run and requeued it resumable.
	Preemptions int `json:"preemptions,omitempty"`

	// Placement and Attempt are what a fleet router reported through
	// Attempt.Begin: where the latest attempt executes (a worker's identity,
	// or "local") and how many placements the run has had. Failovers counts
	// the placed attempts that were lost.
	Placement string `json:"placement,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	Failovers int    `json:"failovers,omitempty"`

	// Error describes a failed run, or the interrupt a drained one
	// stopped with.
	Error string `json:"error,omitempty"`
	// Resumable marks a drained run that can be resubmitted with
	// Spec.Resume against the same CheckpointDir and continue (or, with no
	// checkpoint written yet, correctly restart) toward the identical
	// final result.
	Resumable bool `json:"resumable,omitempty"`
	// CheckpointDir echoes the spec's checkpoint location for resubmission.
	CheckpointDir string `json:"checkpointDir,omitempty"`
	// Result is the completed run's execution profile (done runs only).
	Result *core.RunResult `json:"result,omitempty"`
}

// Executor is the seam between the lifecycle, which admits and orders
// runs, and whatever executes them.
type Executor interface {
	// Capacity is how many attempts may be in flight at once. It is called
	// under the lifecycle's lock and must not call back into the Scheduler;
	// an executor whose capacity grew calls Kick.
	Capacity() int
	// Execute runs one attempt on the calling goroutine. A nil error is
	// done, one wrapping core.ErrInterrupted yielded to the interrupt, one
	// wrapping ErrLost asks for a requeue, anything else failed the run.
	Execute(a *Attempt) (*core.RunResult, error)
}

// Attempt is one dispatch of a run to the executor.
type Attempt struct {
	Run    string // the run's ID
	Tenant string
	// Spec and Payload are the submission's; Spec.Resume is set once an
	// earlier attempt left checkpoints to continue from.
	Spec    RunSpec
	Payload any
	// Failovers is how many placed attempts of this run were lost before.
	Failovers int
	// Interrupt is closed when the attempt should stop at its next regrid
	// boundary.
	Interrupt <-chan struct{}

	s     *Scheduler
	r     *run
	begun bool
}

// Begin records that the executor is placing the attempt on placement and
// returns the run's placement count, which numbers the dispatch.
func (a *Attempt) Begin(placement string) int {
	a.s.mu.Lock()
	defer a.s.mu.Unlock()
	a.begun = true
	a.r.attempt++
	a.r.placement = placement
	return a.r.attempt
}

// Local is the in-process executor: every attempt is one core.Run of the
// attempt's Spec. Events, when non-nil, receives its regrid cycles.
type Local struct {
	Workers int
	Events  *stream.Hub
}

// Capacity implements Executor.
func (l Local) Capacity() int { return l.Workers }

// Execute implements Executor.
func (l Local) Execute(a *Attempt) (*core.RunResult, error) {
	start := time.Now()
	spec := &a.Spec
	var onRegrid func(int, string)
	if hub, id := l.Events, a.Run; hub != nil {
		onRegrid = func(idx int, partitioner string) {
			hub.Publish(stream.Event{
				Run: id, Type: stream.TypeRegrid,
				Cycle: idx, Partitioner: partitioner,
			})
		}
	}
	res, err := core.Run(spec.Trace, spec.Strategy, core.RunConfig{
		Machine:         spec.Machine,
		Cost:            spec.Cost,
		NProcs:          spec.NProcs,
		WorkModel:       spec.WorkModel,
		CheckpointDir:   spec.CheckpointDir,
		CheckpointEvery: spec.CheckpointEvery,
		Resume:          spec.Resume,
		Interrupt:       a.Interrupt,
		OnRegrid:        onRegrid,
		// The pool's runs already fill every core; deciding ahead would
		// add a goroutine's hand-offs to each run and no throughput.
		DecideInOrder: true,
	})
	metricRunSeconds.With(string(outcome(err))).Observe(time.Since(start).Seconds())
	return res, err
}

// outcome is the state an attempt's error ends a run in, requeues aside.
func outcome(err error) State {
	switch {
	case err == nil:
		return StateDone
	case errors.Is(err, core.ErrInterrupted), errors.Is(err, ErrLost):
		return StateDrained
	default:
		return StateFailed
	}
}

// run is the scheduler's internal record.
type run struct {
	seq      int
	id       string
	tenant   string
	priority int
	weight   float64
	spec     RunSpec
	payload  any

	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	errText   string // err.Error(), cached once at finish for the hot status path
	result    *core.RunResult
	done      chan struct{} // closed on terminal state

	// Per-attempt interrupt plumbing: a fresh channel per attempt,
	// closed once by a preemption or a drain (intClosed guards the close).
	interrupt chan struct{}
	intClosed bool
	// preempting marks a run whose interrupt was fired to yield its
	// slot (as opposed to a drain); finish requeues it instead of
	// recording a terminal state.
	preempting  bool
	preemptions int
	// yielded marks a requeued run, preempted or lost: it executed before,
	// so a drain records it drained, not cancelled.
	yielded bool
	// Reported through Attempt.Begin; failovers counts lost placements.
	placement string
	attempt   int
	failovers int
	// charged is the cumulative cost already billed to the tenant for
	// this run, so a preempted-and-resumed run is only charged the delta
	// each attempt adds.
	charged float64
}

func (r *run) status() RunStatus {
	st := RunStatus{
		ID:          r.id,
		Tenant:      r.tenant,
		Priority:    r.priority,
		Weight:      r.weight,
		State:       r.state,
		Submitted:   r.submitted,
		Started:     r.started,
		Finished:    r.finished,
		Preemptions: r.preemptions,
		Placement:   r.placement,
		Attempt:     r.attempt,
		Failovers:   r.failovers,
	}
	if !r.started.IsZero() {
		st.QueueSeconds = r.started.Sub(r.submitted).Seconds()
		if !r.finished.IsZero() {
			st.RunSeconds = r.finished.Sub(r.started).Seconds()
		}
	}
	if r.err != nil {
		st.Error = r.errText
	}
	if r.state == StateDrained || r.state == StatePreempted {
		st.Resumable = r.spec.CheckpointDir != ""
		st.CheckpointDir = r.spec.CheckpointDir
	}
	if r.state == StateDone {
		st.Result = r.result
	}
	return st
}

// Stats is a point-in-time view of the scheduler.
type Stats struct {
	Workers     int  `json:"workers"` // the executor's capacity
	QueueDepth  int  `json:"queueDepth"`
	QueueLimit  int  `json:"queueLimit"`
	TenantLimit int  `json:"tenantLimit"`
	Active      int  `json:"active"`
	Draining    bool `json:"draining"`

	Submitted int `json:"submitted"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Drained   int `json:"drained"`
	Cancelled int `json:"cancelled"`
	// Preemptions counts checkpoint-based preemptions fired since start.
	Preemptions int `json:"preemptions"`
}

// Scheduler is the run lifecycle over one Executor.
type Scheduler struct {
	cfg  Config
	exec Executor

	mu          sync.Mutex
	queue       *fairQueue
	runs        map[string]*run
	running     map[string]*run // dispatched and executing (preemption victim pool)
	finished    []string        // eviction order of terminal records
	tenantLoad  map[string]int
	weights     map[string]float64       // current weight per active tenant
	gauges      map[string]*tenantGauges // pre-resolved per-tenant metric children
	counts      map[State]int
	active      int
	submitted   int
	seq         int
	preemptions int
	draining    bool

	wg       sync.WaitGroup // in-flight attempts
	stopOnce sync.Once
	stopped  chan struct{}
}

// New starts a scheduler that executes runs in this process, at most
// Config.Workers at a time. Stop it with Drain (graceful) or Close.
func New(cfg Config) *Scheduler {
	cfg.fill()
	return NewWithExecutor(cfg, Local{Workers: cfg.Workers, Events: cfg.Events})
}

// NewWithExecutor starts the lifecycle over exec, which decides how many
// attempts run at once and where.
func NewWithExecutor(cfg Config, exec Executor) *Scheduler {
	cfg.fill()
	metricWorkers.Set(float64(exec.Capacity()))
	return &Scheduler{
		cfg:        cfg,
		exec:       exec,
		stopped:    make(chan struct{}),
		queue:      newFairQueue(),
		runs:       make(map[string]*run),
		running:    make(map[string]*run),
		tenantLoad: make(map[string]int),
		weights:    make(map[string]float64),
		gauges:     make(map[string]*tenantGauges),
		counts:     make(map[State]int),
	}
}

// publishState emits r's current lifecycle state to the events hub.
// Callers hold s.mu: Hub.Publish never blocks, and publishing under the
// scheduler lock is what guarantees a run's queued → running → terminal
// events reach the hub in order.
func (s *Scheduler) publishState(r *run) {
	if s.cfg.Events == nil {
		return
	}
	s.cfg.Events.Publish(stream.Event{
		Run:   r.id,
		Type:  stream.TypeState,
		State: string(r.state),
		Error: r.errText,
	})
}

// Submit admits a run or rejects it with ErrSaturated, ErrTenantLimit or
// ErrDraining. On admission it returns the queued run's status snapshot;
// the run starts as soon as the executor has a free slot.
func (s *Scheduler) Submit(req SubmitRequest) (RunStatus, error) {
	if req.Payload == nil {
		if err := req.Spec.validate(); err != nil {
			return RunStatus{}, err
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		admitDraining.Inc()
		return RunStatus{}, fmt.Errorf("sched: submit %q: %w", req.Tenant, ErrDraining)
	}
	if s.cfg.TenantLimit > 0 && s.tenantLoad[req.Tenant] >= s.cfg.TenantLimit {
		s.mu.Unlock()
		admitTenant.Inc()
		return RunStatus{}, fmt.Errorf("sched: tenant %q at limit %d: %w",
			req.Tenant, s.cfg.TenantLimit, ErrTenantLimit)
	}
	if s.queue.len() >= s.cfg.QueueLimit {
		s.mu.Unlock()
		admitSaturated.Inc()
		return RunStatus{}, fmt.Errorf("sched: queue at limit %d: %w", s.cfg.QueueLimit, ErrSaturated)
	}
	w := s.weights[req.Tenant]
	if req.Weight != 0 {
		w = clampWeight(req.Weight)
		s.weights[req.Tenant] = w
	} else if w == 0 {
		w = DefaultWeight
		s.weights[req.Tenant] = w
	}
	s.seq++
	r := &run{
		seq:       s.seq,
		id:        fmt.Sprintf("run-%06d", s.seq),
		tenant:    req.Tenant,
		priority:  req.Priority,
		weight:    w,
		spec:      req.Spec,
		payload:   req.Payload,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if r.spec.CheckpointDir == "" && req.CheckpointRoot != "" {
		r.spec.CheckpointDir = filepath.Join(req.CheckpointRoot, r.id)
	}
	s.runs[r.id] = r
	s.submitted++
	s.tenantLoad[r.tenant]++
	s.queue.push(r)
	s.gaugesLocked(r.tenant).weight.Set(w)
	s.publishState(r)
	st := r.status()
	s.dispatchLocked()
	if r.state == StateQueued {
		s.maybePreemptLocked(r)
	}
	s.mu.Unlock()

	admitAccepted.Inc()
	return st, nil
}

// dispatchLocked starts queued runs while the executor has capacity left.
// A run is running — Started stamped, event published — before its attempt
// goroutine exists, so no result can precede that. Callers hold s.mu.
func (s *Scheduler) dispatchLocked() {
	free := 0
	if !s.draining && s.queue.len() > 0 {
		capacity := s.exec.Capacity()
		metricWorkers.Set(float64(capacity))
		free = capacity - s.active
	}
	for ; free > 0; free-- {
		r := s.queue.pop()
		if r == nil {
			break
		}
		r.state = StateRunning
		r.started = time.Now()
		r.interrupt = make(chan struct{})
		r.intClosed = false
		r.preempting = false
		s.running[r.id] = r
		s.active++
		s.publishState(r)
		metricQueueWaitSeconds.Observe(r.started.Sub(r.submitted).Seconds())
		s.wg.Add(1)
		go s.execute(r, &Attempt{
			Run: r.id, Tenant: r.tenant,
			Spec: r.spec, Payload: r.payload,
			Failovers: r.failovers, Interrupt: r.interrupt,
			s: s, r: r,
		})
	}
	metricQueueDepth.Set(float64(s.queue.len()))
	metricActiveRuns.Set(float64(s.active))
}

// Kick re-evaluates dispatch. An Executor calls it when its capacity grew
// — a fleet worker joined, a circuit breaker closed.
func (s *Scheduler) Kick() {
	s.mu.Lock()
	s.dispatchLocked()
	s.mu.Unlock()
}

// maybePreemptLocked fires checkpoint-based preemption for a freshly
// queued run when the executor is saturated and the submitter outranks a
// running run: a higher priority band, or the same band with the victim's
// tenant more than Config.PreemptRatio times over the submitter's
// normalized service. The victim — lowest band first, then the most
// over-share tenant — has its interrupt channel closed; it checkpoints at
// its next regrid boundary and finish requeues it resumable. Only runs
// with a CheckpointDir are eligible: restarting a half-advanced strategy
// is not bit-identical. Runs never preempt their own tenant — the
// submitter would just wait behind itself.
func (s *Scheduler) maybePreemptLocked(sub *run) {
	if s.cfg.PreemptRatio < 0 || s.draining || s.active < s.exec.Capacity() {
		return
	}
	var victim *run
	var victimSvc float64
	for _, v := range s.running {
		if v.preempting || v.tenant == sub.tenant || v.spec.CheckpointDir == "" {
			continue
		}
		svc := s.queue.service(v.priority, v.tenant)
		if victim == nil || v.priority < victim.priority ||
			(v.priority == victim.priority && svc > victimSvc) {
			victim, victimSvc = v, svc
		}
	}
	if victim == nil {
		return
	}
	if victim.priority >= sub.priority {
		if victim.priority > sub.priority {
			return
		}
		subSvc := s.queue.service(sub.priority, sub.tenant)
		if victimSvc <= subSvc || victimSvc <= subSvc*s.cfg.PreemptRatio {
			return
		}
	}
	victim.preempting = true
	victim.preemptions++
	s.preemptions++
	s.closeInterruptLocked(victim)
	metricPreemptions.Inc()
}

// closeInterruptLocked fires a run's per-attempt interrupt channel at
// most once. Callers hold s.mu.
func (s *Scheduler) closeInterruptLocked(r *run) {
	if r.interrupt != nil && !r.intClosed {
		r.intClosed = true
		close(r.interrupt)
	}
}

// execute runs one attempt with panic containment: a panicking run is
// recorded as failed and takes nothing else down with it.
func (s *Scheduler) execute(r *run, a *Attempt) {
	defer s.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			metricPanics.Inc()
			s.finish(r, a, nil, fmt.Errorf("sched: run panicked: %v", p))
		}
	}()
	res, err := s.exec.Execute(a)
	s.finish(r, a, res, err)
}

// finish settles a completed attempt: it charges the attempt's cost to the
// tenant's normalized service, then either requeues a preempted or lost
// run resumable or records the terminal state and releases the tenant
// slot; either way the freed capacity goes to the queue.
func (s *Scheduler) finish(r *run, a *Attempt, res *core.RunResult, err error) {
	state := outcome(err)
	lost := errors.Is(err, ErrLost)

	s.mu.Lock()
	delete(s.running, r.id)
	s.chargeLocked(r, res, err)
	s.active--
	if lost && a.begun {
		r.failovers++
	}
	if state == StateDrained && (lost || r.preempting) && !s.draining {
		// Not drained: the run checkpointed at its regrid boundary to yield
		// the slot, or its executor lost it. Requeue it at the front of its
		// tenant's FIFO — service credit intact — flagged to resume from
		// the checkpoint on its next attempt.
		r.state = StateQueued
		if !lost {
			r.state = StatePreempted
		}
		r.preempting = false
		r.yielded = true
		if r.spec.CheckpointDir != "" {
			r.spec.Resume = true
		}
		s.queue.pushFront(r)
		s.publishState(r)
		s.dispatchLocked()
		s.mu.Unlock()

		if !lost {
			metricOutcomes.With(string(StatePreempted)).Inc()
		}
		return
	}
	r.preempting = false
	r.state = state
	r.finished = time.Now()
	r.result = res
	r.err = err
	if err != nil {
		r.errText = err.Error()
	}
	s.settleLocked(r)
	s.dispatchLocked()
	s.mu.Unlock()
	close(r.done)
}

// settleLocked books a run that just reached a terminal state. Callers
// hold s.mu and close r.done after releasing it.
func (s *Scheduler) settleLocked(r *run) {
	s.tenantLoad[r.tenant]--
	if s.tenantLoad[r.tenant] <= 0 {
		delete(s.tenantLoad, r.tenant)
		s.tenantExitLocked(r.tenant)
	}
	s.counts[r.state]++
	s.retire(r)
	s.publishState(r)
	metricOutcomes.With(string(r.state)).Inc()
}

// chargeLocked bills the tenant for the progress this attempt made, in
// cost units — completed regrid intervals when the run reports them
// (result snapshots, or the interrupt's resume point), wall-clock seconds
// otherwise — normalized by the tenant's weight. Charges are cumulative
// per run (r.charged), so a preempted-then-resumed run pays only the
// delta each attempt adds. Callers hold s.mu.
func (s *Scheduler) chargeLocked(r *run, res *core.RunResult, err error) {
	var total float64
	switch {
	case res != nil && len(res.Snapshots) > 0:
		total = float64(len(res.Snapshots))
	default:
		if n, ok := interruptedAt(err); ok {
			total = n
		} else {
			total = r.charged + time.Since(r.started).Seconds()
		}
	}
	delta := total - r.charged
	if !(delta > 0) { // also guards NaN from a pathological executor result
		return
	}
	r.charged = total
	w := r.weight
	if w <= 0 {
		w = DefaultWeight
	}
	norm := delta / w
	svc := s.queue.charge(r.priority, r.tenant, norm)
	g := s.gaugesLocked(r.tenant)
	g.cost.Add(delta)
	g.service.Set(svc)
	metricNormalizedService.Observe(norm)
}

// interruptedAt reports the resume point of an interrupted attempt. Kept
// out of chargeLocked so the errors.As target only escapes to the heap on
// the rare interrupted path, not on every clean completion.
func interruptedAt(err error) (float64, bool) {
	if err == nil {
		return 0, false
	}
	var ie *core.InterruptedError
	if errors.As(err, &ie) {
		return float64(ie.Next), true
	}
	return 0, false
}

// tenantExitLocked forgets a tenant whose last queued-or-running run just
// finished: its normalized-service ledger and declared weight reset, so
// the next active period starts fresh (no banked idle credit, no carried
// debt). Callers hold s.mu.
func (s *Scheduler) tenantExitLocked(tenant string) {
	s.queue.tenantExit(tenant)
	delete(s.weights, tenant)
	s.gaugesLocked(tenant).service.Set(0)
}

// retire appends r to the terminal-record ring, evicting the oldest
// records beyond keepFinished. Callers hold s.mu.
func (s *Scheduler) retire(r *run) {
	s.finished = append(s.finished, r.id)
	for len(s.finished) > keepFinished {
		delete(s.runs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// BeginDrain is the part of Drain that does not wait: admission closes,
// every in-flight attempt is interrupted and the backlog is settled. It
// reports whether this call began the drain.
func (s *Scheduler) BeginDrain() bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.draining = true
	metricDrains.Inc()
	for _, r := range s.running {
		s.closeInterruptLocked(r)
	}
	backlog := s.queue.drainAll()
	metricQueueDepth.Set(0)
	now := time.Now()
	for _, r := range backlog {
		// A requeued run already executed up to a regrid boundary; it
		// leaves as drained-resumable, exactly as if the drain had
		// interrupted it itself.
		r.state = StateCancelled
		if r.yielded {
			r.state = StateDrained
		}
		r.finished = now
		s.settleLocked(r)
	}
	s.mu.Unlock()
	for _, r := range backlog {
		close(r.done)
	}
	return true
}

// Drain gracefully stops the scheduler: admission closes, the backlog is
// cancelled, every in-flight run is interrupted at its next regrid
// boundary (checkpointing through its configured store first), and Drain
// returns once every attempt has ended — or earlier with ctx's error.
// Drained runs report Resumable and can be resubmitted with Spec.Resume.
// Drain is idempotent; concurrent calls all wait for the same drain.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.BeginDrain()
	go func() {
		s.wg.Wait()
		s.stopOnce.Do(func() { close(s.stopped) })
	}()
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sched: drain: %w", ctx.Err())
	}
}

// Draining reports whether a drain has begun: the scheduler no longer
// admits work. Serving binaries surface it through /readyz so load
// balancers stop routing to the node while in-flight runs checkpoint.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stopped returns a channel closed once a drain has completed and every
// attempt has ended — however the drain was initiated (Close, Drain,
// or the HTTP drain endpoint). Serving binaries select on it to exit after
// a remote drain.
func (s *Scheduler) Stopped() <-chan struct{} { return s.stopped }

// Close drains with no deadline: it returns once every in-flight run has
// reached a regrid boundary and stopped.
func (s *Scheduler) Close() error { return s.Drain(context.Background()) }

// Status returns the run's current snapshot.
func (s *Scheduler) Status(id string) (RunStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return RunStatus{}, false
	}
	return r.status(), true
}

// Wait blocks until the run reaches a terminal state (or ctx ends) and
// returns its final status.
func (s *Scheduler) Wait(ctx context.Context, id string) (RunStatus, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RunStatus{}, fmt.Errorf("sched: unknown run %q", id)
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		return RunStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.status(), nil
}

// DefaultRunsLimit caps an HTTP /sched/runs page when no explicit
// ?limit= is given.
const DefaultRunsLimit = 256

// RunsPage lists retained run records in submission order, skipping runs
// submitted up to and including run ID after ("" starts from the oldest
// retained record; an evicted or future ID still orders correctly because
// IDs embed the submission sequence). limit bounds the page size;
// limit <= 0 means unbounded. Page through a large backlog by passing the
// last returned ID as the next after.
func (s *Scheduler) RunsPage(after string, limit int) []RunStatus {
	afterSeq := 0
	if after != "" {
		if n, err := strconv.Atoi(strings.TrimPrefix(after, "run-")); err == nil {
			afterSeq = n
		}
	}
	s.mu.Lock()
	rs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		if r.seq > afterSeq {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].seq < rs[j].seq })
	if limit > 0 && len(rs) > limit {
		rs = rs[:limit]
	}
	out := make([]RunStatus, len(rs))
	for i, r := range rs {
		out[i] = r.status()
	}
	s.mu.Unlock()
	return out
}

// Stats returns the scheduler's aggregate state.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Workers:     s.exec.Capacity(),
		QueueDepth:  s.queue.len(),
		QueueLimit:  s.cfg.QueueLimit,
		TenantLimit: s.cfg.TenantLimit,
		Active:      s.active,
		Draining:    s.draining,
		Submitted:   s.submitted,
		Done:        s.counts[StateDone],
		Failed:      s.counts[StateFailed],
		Drained:     s.counts[StateDrained],
		Cancelled:   s.counts[StateCancelled],
		Preemptions: s.preemptions,
	}
}
