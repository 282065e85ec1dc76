// Package engine executes a partitioned SAMR timestep loop as an actual
// message-passing program: one worker per processor owns its assigned grid
// units, computes over them, and exchanges ghost messages with its
// neighbors through the agents Message Center. Where internal/cluster
// *models* the cost of a distributed run, this package *emulates* one —
// real concurrent workers, real messages, real synchronization — so the
// communication patterns the partition package predicts can be observed,
// counted and verified in a running system. Workers speak the agents.Port
// interface, so the same engine runs in-process or across TCP clients
// (multi-node emulation).
//
// Runs are supervised: a worker error aborts the whole run instead of
// deadlocking the barrier, an optional step deadline turns a stalled or
// killed worker into a LostWorkersError naming the missing processors.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// ghostPayload is the body of one ghost-exchange message.
type ghostPayload struct {
	Step  int     `json:"step"`
	Pair  int     `json:"pair"`
	Faces float64 `json:"faces"`
	// Checksum carries the sender's running computation digest so receipt
	// is observable data flow, not just a signal.
	Checksum uint64 `json:"checksum"`
}

// WorkerReport summarizes one worker's execution.
type WorkerReport struct {
	Proc          int
	Units         int
	WorkPerformed float64
	MessagesSent  int
	MessagesRecv  int
	FacesSent     float64
	// Checksum digests the worker's computation and everything it
	// received; it makes runs comparable for determinism checks.
	Checksum uint64
	// GhostsDropped counts rejected ghost messages: stale steps, absurdly
	// early steps, and duplicate (step, pair) deliveries — replayed or
	// corrupted traffic that must not grow memory or double-count digests.
	GhostsDropped int
}

// Report summarizes a full engine run.
type Report struct {
	Steps   int
	Workers []WorkerReport
}

// TotalMessages returns the number of ghost messages delivered per run.
func (r Report) TotalMessages() int {
	n := 0
	for _, w := range r.Workers {
		n += w.MessagesRecv
	}
	return n
}

// FaultMode selects the kind of worker fault withWorkerFault injects — the
// engine-level counterpart of package chaos's wire faults.
type FaultMode int

const (
	// FaultError makes the worker return an error at the faulted step (a
	// failed computation).
	FaultError FaultMode = iota + 1
	// FaultStall makes the worker stop processing messages at the faulted
	// step without exiting (a hung process); only run abortion releases it.
	FaultStall
	// FaultCrash makes the worker exit silently before signaling the
	// barrier (a killed process); detection is the supervisor's job.
	FaultCrash
)

type workerFault struct {
	step int
	mode FaultMode
}

type options struct {
	stepDeadline time.Duration
	faults       map[int]workerFault
}

// Option configures an engine's supervision behavior.
type Option func(*options)

// WithStepDeadline bounds how long the coordinator waits for a step's
// barriers and (at twice the value, as a backstop) how long a worker waits
// for its ghosts and proceed token. When the deadline expires the run
// fails with a LostWorkersError naming the processors that went silent
// instead of hanging. 0 (the default) disables deadlines; worker errors
// still abort the run.
func WithStepDeadline(d time.Duration) Option {
	return func(o *options) { o.stepDeadline = d }
}

// withWorkerFault injects a deterministic fault into one worker at the
// given step — reproducible crash rehearsal for the supervision machinery;
// only tests set it.
func withWorkerFault(proc, step int, mode FaultMode) Option {
	return func(o *options) {
		if o.faults == nil {
			o.faults = map[int]workerFault{}
		}
		o.faults[proc] = workerFault{step: step, mode: mode}
	}
}

// LostWorkersError reports processors that missed a step deadline: their
// barrier signal or ghost messages never arrived, so they are presumed
// stalled or dead.
type LostWorkersError struct {
	// Step is the BSP step at which the loss was detected.
	Step int
	// Missing lists the processors that went silent.
	Missing []int
	// Deadline is the configured step deadline that expired.
	Deadline time.Duration
}

// Error implements error.
func (e *LostWorkersError) Error() string {
	return fmt.Sprintf("engine: step %d: workers %v missed the %v step deadline",
		e.Step, e.Missing, e.Deadline)
}

// errAborted marks a worker cancelled by another's failure; it is internal
// bookkeeping, never surfaced as the run error.
var errAborted = errors.New("engine: run aborted")

// errDeadline marks an expired receive deadline.
var errDeadline = errors.New("engine: step deadline exceeded")

// supervisor coordinates run abortion: the first failure wins and every
// blocked worker and the coordinator are released through the abort
// channel — the fix for the seed's deadlock, where a worker error left
// the coordinator blocked on barriers and wg.Wait never returned.
type supervisor struct {
	abort chan struct{}
	once  sync.Once
	mu    sync.Mutex
	err   error
}

func newSupervisor() *supervisor {
	return &supervisor{abort: make(chan struct{})}
}

// fail records the failure and releases everyone. The first error is kept,
// except that a LostWorkersError upgrades a bare deadline error — the
// attribution is worth more than arrival order.
func (s *supervisor) fail(err error) {
	s.mu.Lock()
	var lw *LostWorkersError
	if s.err == nil {
		s.err = err
	} else if errors.As(err, &lw) && !errors.As(s.err, new(*LostWorkersError)) {
		s.err = err
	}
	s.mu.Unlock()
	s.once.Do(func() { close(s.abort) })
}

func (s *supervisor) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// recvWait receives one message, giving up on abort or after the deadline
// (0 = wait forever, but still abortable).
func recvWait(ch <-chan agents.Message, abort <-chan struct{}, d time.Duration) (agents.Message, bool, error) {
	if d <= 0 {
		select {
		case m, ok := <-ch:
			return m, ok, nil
		case <-abort:
			return agents.Message{}, false, errAborted
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case m, ok := <-ch:
		return m, ok, nil
	case <-abort:
		return agents.Message{}, false, errAborted
	case <-t.C:
		return agents.Message{}, false, errDeadline
	}
}

// worker is one emulated processor.
type worker struct {
	proc  int
	port  agents.Port
	inbox <-chan agents.Message
	units []int // indices into the assignment
	// sends lists (pair index, destination proc, faces) for messages this
	// worker originates each step; ghost exchange is symmetric, so the
	// same pairs arrive back from the peers.
	sends []send
	// expect is the number of ghost messages arriving per step.
	expect int
	fault  workerFault
	report WorkerReport
}

type send struct {
	pair  int
	to    string
	peer  int
	faces float64
}

// Engine drives a set of workers through BSP steps.
type Engine struct {
	h        *samr.Hierarchy
	a        *partition.Assignment
	workers  []*worker
	coord    <-chan agents.Message
	coordown agents.Port
	opts     options
}

// portName returns worker p's mailbox name.
func portName(p int) string { return fmt.Sprintf("engine-worker-%d", p) }

// coordName is the coordinator's mailbox name.
const coordName = "engine-coordinator"

// New wires an engine over the given ports: ports[p] is the Port worker p
// registers its mailbox on (pass the same Center for an in-process run, or
// distinct TCP clients for a multi-node emulation). coordOn hosts the
// coordinator mailbox. Options add supervision: WithStepDeadline bounds
// every wait, withWorkerFault injects deterministic faults for crash rehearsal.
func New(h *samr.Hierarchy, a *partition.Assignment, coordOn agents.Port, ports []agents.Port, opts ...Option) (*Engine, error) {
	return NewFromPlan(partition.BuildCommPlan(h, a), coordOn, ports, opts...)
}

// NewFromPlan wires an engine from an already-built communication plan,
// reusing its unit-pair adjacency instead of searching the assignment
// again. Callers that evaluated the assignment's PAC quality already hold
// the plan; handing it over makes engine construction free of any plan
// build.
func NewFromPlan(plan *partition.CommPlan, coordOn agents.Port, ports []agents.Port, opts ...Option) (*Engine, error) {
	h, a := plan.H, plan.A
	if len(ports) != a.NProcs {
		return nil, fmt.Errorf("engine: %d ports for %d processors", len(ports), a.NProcs)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{h: h, a: a, coordown: coordOn}
	for _, o := range opts {
		o(&e.opts)
	}
	coordIn, err := coordOn.Register(coordName, a.NProcs*4)
	if err != nil {
		return nil, err
	}
	e.coord = coordIn
	pairs := plan.Pairs()
	expect := make([]int, a.NProcs)
	sends := make([][]send, a.NProcs)
	for i, pr := range pairs {
		o1, o2 := a.Owner[pr.U1], a.Owner[pr.U2]
		sends[o1] = append(sends[o1], send{pair: i, to: portName(o2), peer: o2, faces: pr.Faces})
		sends[o2] = append(sends[o2], send{pair: i, to: portName(o1), peer: o1, faces: pr.Faces})
		expect[o1]++
		expect[o2]++
	}
	for p := 0; p < a.NProcs; p++ {
		inbox, err := ports[p].Register(portName(p), 4*(expect[p]+4))
		if err != nil {
			return nil, fmt.Errorf("engine: worker %d: %w", p, err)
		}
		w := &worker{
			proc:   p,
			port:   ports[p],
			inbox:  inbox,
			sends:  sends[p],
			expect: expect[p],
			fault:  e.opts.faults[p],
		}
		for i, o := range a.Owner {
			if o == p {
				w.units = append(w.units, i)
			}
		}
		e.workers = append(e.workers, w)
	}
	return e, nil
}

// Run executes the given number of BSP steps and returns the aggregated
// report. Each step: every worker computes over its units, exchanges ghost
// messages with its neighbors, and reports to the coordinator, which
// releases the next step once all workers arrive. A worker failure aborts
// the run; with a step deadline configured, a stalled or killed worker
// surfaces as a LostWorkersError within a bounded wait — never a hang.
func (e *Engine) Run(steps int) (Report, error) {
	if steps < 1 {
		return Report{}, fmt.Errorf("engine: steps %d < 1", steps)
	}
	sup := newSupervisor()
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if err := w.run(e, steps, sup); err != nil && !errors.Is(err, errAborted) {
				sup.fail(fmt.Errorf("engine: worker %d: %w", w.proc, err))
			}
		}(w)
	}
	coordDone := make(chan struct{})
	go func() {
		defer close(coordDone)
		e.coordinate(steps, sup)
	}()
	wg.Wait()
	<-coordDone
	if err := sup.failure(); err != nil {
		var lw *LostWorkersError
		if errors.As(err, &lw) {
			metricLostWorkers.Add(uint64(len(lw.Missing)))
			metricRunsTotal.With("lost-workers").Inc()
		} else {
			metricRunsTotal.With("error").Inc()
		}
		return Report{}, err
	}
	metricRunsTotal.With("ok").Inc()
	rep := Report{Steps: steps}
	for _, w := range e.workers {
		rep.Workers = append(rep.Workers, w.report)
	}
	return rep, nil
}

// coordinate runs the per-step barrier. With a deadline configured, a step
// whose barriers do not complete in time fails the run with the list of
// missing processors — lost-worker detection.
func (e *Engine) coordinate(steps int, sup *supervisor) {
	for s := 0; s < steps; s++ {
		stepStart := time.Now()
		var firstBarrier time.Time
		arrived := make(map[string]bool, len(e.workers))
		for len(arrived) < len(e.workers) {
			m, ok, err := recvWait(e.coord, sup.abort, e.opts.stepDeadline)
			switch {
			case errors.Is(err, errAborted):
				return
			case errors.Is(err, errDeadline):
				sup.fail(&LostWorkersError{
					Step:     s,
					Missing:  e.missingProcs(arrived),
					Deadline: e.opts.stepDeadline,
				})
				return
			case !ok:
				sup.fail(fmt.Errorf("engine: coordinator mailbox closed at step %d", s))
				return
			}
			if m.Kind == "barrier" {
				if len(arrived) == 0 {
					firstBarrier = time.Now()
				}
				arrived[m.From] = true
			}
		}
		if !firstBarrier.IsZero() {
			metricBarrierWaitSeconds.Observe(time.Since(firstBarrier).Seconds())
		}
		metricStepSeconds.Observe(time.Since(stepStart).Seconds())
		for p := range e.workers {
			if err := e.coordown.Send(agents.Message{
				From: coordName, To: portName(p), Kind: "proceed",
			}); err != nil {
				sup.fail(fmt.Errorf("engine: coordinator: %w", err))
				return
			}
		}
	}
}

// missingProcs lists workers whose barrier has not arrived.
func (e *Engine) missingProcs(arrived map[string]bool) []int {
	var missing []int
	for p := range e.workers {
		if !arrived[portName(p)] {
			missing = append(missing, p)
		}
	}
	return missing
}

// run is one worker's step loop.
func (w *worker) run(e *Engine, steps int, sup *supervisor) error {
	w.report = WorkerReport{Proc: w.proc, Units: len(w.units)}
	// pending stashes ghosts that arrived ahead of their step (a fast
	// neighbor may run one step ahead of the barrier release); seen dedups
	// (step, pair) so replayed messages cannot double-count. Both maps are
	// bounded: only steps s and s+1 are ever admitted.
	pending := map[int][]ghostPayload{}
	seen := map[int]map[int]bool{}
	// Workers wait at twice the coordinator's deadline so the coordinator
	// — which always misses a lost worker's barrier — diagnoses first and
	// names the missing processors.
	deadline := 2 * e.opts.stepDeadline
	proceeds := 0
	for s := 0; s < steps; s++ {
		if w.fault.mode != 0 && w.fault.step == s {
			switch w.fault.mode {
			case FaultError:
				return fmt.Errorf("injected fault at step %d", s)
			case FaultCrash:
				return errAborted // silent exit: the supervisor must notice
			case FaultStall:
				<-sup.abort // hung process: holds until the run aborts
				return errAborted
			}
		}
		// Compute: digest this worker's assigned work (a stand-in for the
		// numerical kernel; cheap but real data flow).
		for _, ui := range w.units {
			u := e.a.Units[ui]
			w.report.WorkPerformed += u.Weight
			w.report.Checksum = mix(w.report.Checksum, uint64(ui)*0x9e3779b97f4a7c15+uint64(s))
		}
		// Exchange ghosts: send to every neighbor, then consume exactly the
		// expected number of arrivals for this step.
		for _, snd := range w.sends {
			err := w.port.Send(agents.Message{
				From: portName(w.proc),
				To:   snd.to,
				Kind: "ghost",
				Payload: agents.Encode(ghostPayload{
					Step: s, Pair: snd.pair, Faces: snd.faces, Checksum: uint64(snd.pair),
				}),
			})
			if err != nil {
				return err
			}
			w.report.MessagesSent++
			w.report.FacesSent += snd.faces
			metricGhostsSent.Inc()
		}
		// Signal the barrier after sends; then drain this step's ghosts and
		// one proceed token, stashing early arrivals from the next step.
		if err := w.port.Send(agents.Message{
			From: portName(w.proc), To: coordName, Kind: "barrier",
		}); err != nil {
			return err
		}
		for len(pending[s]) < w.expect || proceeds <= s {
			m, ok, err := recvWait(w.inbox, sup.abort, deadline)
			if errors.Is(err, errAborted) {
				return errAborted
			}
			if errors.Is(err, errDeadline) {
				if missing := w.missingPeers(s, seen[s]); len(missing) > 0 {
					return &LostWorkersError{Step: s, Missing: missing, Deadline: deadline}
				}
				return fmt.Errorf("step %d: no proceed from coordinator within %v (%w)",
					s, deadline, errDeadline)
			}
			if !ok {
				return fmt.Errorf("mailbox closed at step %d", s)
			}
			switch m.Kind {
			case "ghost":
				var g ghostPayload
				if err := agents.Decode(m, &g); err != nil {
					return err
				}
				// A BSP neighbor runs at most one step ahead of the barrier,
				// so anything outside [s, s+1] — or a (step, pair) already
				// recorded — is replayed or corrupted traffic: drop it.
				if g.Step < s || g.Step > s+1 || seen[g.Step][g.Pair] {
					w.report.GhostsDropped++
					metricGhostsDropped.Inc()
					continue
				}
				if seen[g.Step] == nil {
					seen[g.Step] = map[int]bool{}
				}
				seen[g.Step][g.Pair] = true
				pending[g.Step] = append(pending[g.Step], g)
			case "proceed":
				proceeds++
			}
		}
		// Consume this step's ghosts in pair order so the digest does not
		// depend on arrival order.
		arrived := pending[s]
		delete(pending, s)
		delete(seen, s)
		sort.Slice(arrived, func(i, j int) bool { return arrived[i].Pair < arrived[j].Pair })
		for _, g := range arrived {
			w.report.MessagesRecv++
			metricGhostsRecv.Inc()
			w.report.Checksum = mix(w.report.Checksum, g.Checksum^uint64(g.Step))
		}
	}
	return nil
}

// missingPeers names the processors whose step-s ghosts never arrived.
func (w *worker) missingPeers(s int, got map[int]bool) []int {
	peerMissing := map[int]bool{}
	for _, snd := range w.sends {
		if !got[snd.pair] {
			peerMissing[snd.peer] = true
		}
	}
	missing := make([]int, 0, len(peerMissing))
	for p := range peerMissing {
		missing = append(missing, p)
	}
	sort.Ints(missing)
	return missing
}

// mix is a simple 64-bit hash combiner.
func mix(acc, v uint64) uint64 {
	acc ^= v + 0x9e3779b97f4a7c15 + (acc << 6) + (acc >> 2)
	return acc
}
