package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/sched"
	"github.com/pragma-grid/pragma/internal/stream"
)

// RunStatus is a fleet run's status: a fleet run is a scheduler run whose
// attempts the router executes.
type RunStatus = sched.RunStatus

// Placement, retry and breaker tuning (DESIGN.md §12).
const (
	placeAttempts    = 3               // dispatch tries per placement round before running the run locally
	breakerThreshold = 3               // consecutive dispatch failures that open a worker's circuit breaker
	breakerCooldown  = 5 * time.Second // how long an open breaker keeps its worker out of placement
	maxFailovers     = 3               // re-placements after worker loss before running the run locally
	inflightLimit    = 1024            // admitted backlog fleet-wide; submissions beyond it get sched.ErrSaturated
	localWorkers     = 1               // runs the router executes itself at once while no worker is placeable
)

// dispatchDeadline bounds each dispatch RPC: a worker that does not
// acknowledge within it is treated as failed. backoffBase and backoffMax
// shape the exponential backoff between dispatch tries; a uniform jitter of
// up to half the current backoff is added so a thundering herd of retries
// spreads out. They are variables only so tests can shorten them.
var (
	dispatchDeadline = 2 * time.Second
	backoffBase      = 25 * time.Millisecond
	backoffMax       = 500 * time.Millisecond
)

// Config sizes a Router.
type Config struct {
	// Port is the control-network access the router sends and receives
	// on — the broker process passes its own Center (required).
	Port agents.Port

	// HeartbeatTimeout evicts workers silent this long (default 5s). The
	// eviction scan runs at a quarter of it.
	HeartbeatTimeout time.Duration
	// Materialize turns wire specs into executable specs for the local
	// execution path (default DefaultMaterializer()).
	Materialize Materializer
	// OnError receives asynchronous failures (send errors, late frames);
	// it runs on router goroutines and must not block. nil discards.
	OnError func(error)
	// Events, when non-nil, receives a stream.Event for every run state
	// transition — admission, dispatch (running), failover re-queueing,
	// the terminal record — and the regrid cycles of runs the router
	// executes itself. Publishing never blocks; slow subscribers drop.
	Events *stream.Hub
}

func (c *Config) fill() {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.Materialize == nil {
		c.Materialize = DefaultMaterializer()
	}
}

// WorkerInfo is the router's view of one worker, for /sched/fleet.
type WorkerInfo struct {
	ID            string    `json:"id"`
	Slots         int       `json:"slots"`
	Active        int       `json:"active"`
	CPU           float64   `json:"cpu"`
	LastHeartbeat time.Time `json:"lastHeartbeat"`
	BreakerOpen   bool      `json:"breakerOpen,omitempty"`
	Evicted       bool      `json:"evicted,omitempty"`
	Draining      bool      `json:"draining,omitempty"`
}

// Stats is a point-in-time aggregate view of the router: the lifecycle's
// counters plus the fleet's.
type Stats struct {
	sched.Stats
	// Workers counts registered, unevicted workers (shadowing the
	// lifecycle's capacity figure); Reachable the placeable ones among them:
	// fresh heartbeat, closed breaker, not draining.
	Workers   int `json:"workers"`
	Reachable int `json:"reachable"`

	Failovers      int `json:"failovers"`
	Evictions      int `json:"evictions"`
	LocalFallbacks int `json:"localFallbacks"`
}

// workerState is the router's record of one worker process. A worker back
// from an eviction gets a fresh record, so attempts still unwinding from
// the old one release slots nobody counts any more.
type workerState struct {
	id       string
	port     string
	slots    int
	inflight int // attempts the router has placed, or is placing, on it
	reading  monitor.Reading
	lastBeat time.Time

	failures  int // consecutive dispatch failures (breaker input)
	openUntil time.Time
	evicted   bool
	draining  bool
}

// dispatch is one placement awaiting its worker's ack and result. Each
// channel holds the one message of its kind the dispatch accepts; res also
// carries the eviction path's notice that the worker is lost (stateLost).
type dispatch struct {
	attempt int
	w       *workerState
	ack     chan ackMsg
	res     chan resultMsg
}

// stateLost is the resultMsg.State of a dispatch whose worker was evicted.
const stateLost = "lost"

// SubmitRequest is one fleet admission attempt.
type SubmitRequest struct {
	Tenant   string
	Priority int
	Spec     WireSpec
	// CheckpointRoot, when set and Spec.CheckpointDir is empty, makes the
	// run checkpoint under <root>/<run-id>, so failover can resume it.
	CheckpointRoot string
}

// Router is the remote executor of a run lifecycle: internal/sched admits,
// orders and records the runs; the router places each attempt it is handed
// on a fleet worker or, with none placeable, runs it itself. Create with
// NewRouter; stop with Drain (graceful) or Close.
type Router struct {
	cfg  Config
	port agents.Port
	life *sched.Scheduler

	mu      sync.Mutex // never held while calling into life
	workers map[string]*workerState
	pending map[string]*dispatch // by run ID

	failovers int
	evictions int
	fallbacks int

	stopCh chan struct{}
	stopO  sync.Once
	wg     sync.WaitGroup
}

// NewRouter registers the router's mailbox on the control network and
// starts its receive and eviction loops.
func NewRouter(cfg Config) (*Router, error) {
	cfg.fill()
	if cfg.Port == nil {
		return nil, fmt.Errorf("fleet: router needs a Port")
	}
	inbox, err := cfg.Port.Register(RouterPort, 1024)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	r := &Router{
		cfg:     cfg,
		port:    cfg.Port,
		workers: make(map[string]*workerState),
		pending: make(map[string]*dispatch),
		stopCh:  make(chan struct{}),
	}
	// Preemption stays off: a preemption cannot yet be forwarded to one
	// remote run.
	r.life = sched.NewWithExecutor(sched.Config{
		QueueLimit:   inflightLimit,
		Events:       cfg.Events,
		PreemptRatio: -1,
	}, r)
	r.wg.Add(2)
	go r.recvLoop(inbox)
	go r.evictLoop()
	return r, nil
}

// AttachCenter subscribes the router to the center's disconnect
// notifications, so a worker whose TCP link tears down is failed over
// immediately instead of after the heartbeat window.
func (r *Router) AttachCenter(c *agents.Center) {
	c.OnDisconnect(r.PortsLost)
}

// PortsLost reacts to control-network ports vanishing: any that belong to
// registered workers evict those workers and fail their runs over.
func (r *Router) PortsLost(ports []string) {
	for _, p := range ports {
		if id, ok := strings.CutPrefix(p, workerPortPrefix); ok && id != "" {
			r.evict(id, causeLinkLost)
		}
	}
}

// reportErr routes an asynchronous failure to the configured handler.
func (r *Router) reportErr(err error) {
	if r.cfg.OnError != nil {
		r.cfg.OnError(err)
	}
}

// Submit admits a run. It returns the queued run's status; the run is
// dispatched as soon as the fleet has a free slot (watch Status or Wait).
func (r *Router) Submit(req SubmitRequest) (RunStatus, error) {
	return r.life.Submit(sched.SubmitRequest{
		Tenant:   req.Tenant,
		Priority: req.Priority,
		Weight:   req.Spec.Weight,
		// The lifecycle owns these two; Execute copies them back.
		Spec:           sched.RunSpec{CheckpointDir: req.Spec.CheckpointDir, Resume: req.Spec.Resume},
		Payload:        req.Spec,
		CheckpointRoot: req.CheckpointRoot,
	})
}

// placeable reports whether new work may be sent to w. Callers hold r.mu.
func (r *Router) placeable(w *workerState, now time.Time) bool {
	return !w.evicted && !w.draining && !now.Before(w.openUntil) &&
		now.Sub(w.lastBeat) <= r.cfg.HeartbeatTimeout
}

// Capacity implements sched.Executor: the slot total of the placeable
// workers, or localWorkers while there is none.
func (r *Router) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	slots := 0
	for _, w := range r.workers {
		if r.placeable(w, now) {
			slots += w.slots
		}
	}
	if slots == 0 {
		return localWorkers
	}
	return slots
}

// errUnplaced marks a dispatch the worker never took on.
var errUnplaced = errors.New("fleet: dispatch not accepted")

// remoteError is a worker's own error text, classed for the lifecycle.
type remoteError struct {
	text  string
	class error
}

func (e *remoteError) Error() string { return e.text }
func (e *remoteError) Unwrap() error { return e.class }

func interrupted(a *sched.Attempt) bool {
	select {
	case <-a.Interrupt:
		return true
	default:
		return false
	}
}

// Execute implements sched.Executor: it finds the attempt a home —
// capacity-ranked workers first, with bounded retries, backoff and jitter,
// then this process — and stays with it until it ends.
func (r *Router) Execute(a *sched.Attempt) (*core.RunResult, error) {
	ws, _ := a.Payload.(WireSpec)
	ws.CheckpointDir, ws.Resume = a.Spec.CheckpointDir, a.Spec.Resume
	// After maxFailovers moves the run goes straight to local execution
	// rather than bouncing around a collapsing fleet.
	if a.Failovers <= maxFailovers {
		backoff := backoffBase
		tried := make(map[string]bool)
		for try := 0; try < placeAttempts; try++ {
			if interrupted(a) {
				return nil, &remoteError{"fleet draining before placement", core.ErrInterrupted}
			}
			w, placeable := r.pickWorker(tried)
			if w == nil {
				if placeable > 0 {
					// The fleet shrank under this attempt: wait in the queue
					// for a slot instead of competing with the workers.
					return nil, &remoteError{"fleet: no free slot", sched.ErrLost}
				}
				break // nobody placeable; degrade to local
			}
			tried[w.id] = true
			if try > 0 {
				metricRetries.Inc()
			}
			if res, err := r.dispatch(a, w, ws); err != errUnplaced {
				return res, err
			}
			// Failed attempt: back off with jitter before trying the next
			// candidate so a flapping fleet is not hammered in lockstep.
			sleep := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
			backoff = min(2*backoff, backoffMax)
			select {
			case <-time.After(sleep):
			case <-a.Interrupt:
			case <-r.stopCh:
			}
		}
	}
	// Zero placeable workers is the local executor, the code a single node
	// runs: the run still checkpoints and drains exactly as on a worker.
	spec, err := r.cfg.Materialize(ws)
	if err != nil {
		return nil, fmt.Errorf("materialize: %w", err)
	}
	a.Begin("local")
	a.Spec = spec
	r.mu.Lock()
	r.fallbacks++
	r.mu.Unlock()
	metricLocalFallbacks.Inc()
	return sched.Local{Events: r.cfg.Events}.Execute(a)
}

// pickWorker reserves a slot on the placeable worker with the most forecast
// relative capacity (Fig. 4 applied to the fleet: each worker's heartbeat
// reading is one "node" of the capacity calculation) discounted by what
// the router has in flight on it, preferring ones this placement has not
// tried. Free slots are judged by the router's own count: a heartbeat's
// occupancy is as old as the heartbeat. It returns nil when no placeable
// worker has a free slot, and how many are placeable.
func (r *Router) pickWorker(tried map[string]bool) (*workerState, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	placeable := 0
	eligible := make([]*workerState, 0, len(r.workers))
	for _, w := range r.workers {
		if !r.placeable(w, now) {
			continue
		}
		placeable++
		if w.inflight < w.slots {
			eligible = append(eligible, w)
		}
	}
	metricReachableWorkers.Set(float64(placeable))
	if len(eligible) == 0 {
		return nil, placeable
	}
	// Prefer untried candidates; fall back to the full set only when every
	// eligible worker has already failed this placement once.
	fresh := eligible[:0:0]
	for _, w := range eligible {
		if !tried[w.id] {
			fresh = append(fresh, w)
		}
	}
	if len(fresh) > 0 {
		eligible = fresh
	}
	sort.Slice(eligible, func(i, j int) bool { return eligible[i].id < eligible[j].id })
	readings := make([]monitor.Reading, len(eligible))
	for i, w := range eligible {
		readings[i] = w.reading
	}
	caps, err := monitor.Capacities(readings, monitor.DefaultWeights())
	best := eligible[0]
	bestScore := -1.0
	for i, w := range eligible {
		score := 1.0
		if err == nil {
			score = caps[i]
		}
		score /= float64(1 + w.inflight)
		if score > bestScore {
			best, bestScore = w, score
		}
	}
	best.inflight++
	return best, placeable
}

// dispatch sends one placement to w, on which pickWorker reserved a slot,
// and stays with it: the worker's acknowledgment under the dispatch
// deadline, then the run's result or the loss of the worker. It returns
// errUnplaced when the worker did not take the run on, and fails the run
// when its spec did not materialize there.
func (r *Router) dispatch(a *sched.Attempt, w *workerState, ws WireSpec) (*core.RunResult, error) {
	// The placement is recorded before anything is sent, so the terminal
	// record says where the run executed however fast its result arrives.
	d := &dispatch{attempt: a.Begin(w.id), w: w, ack: make(chan ackMsg, 1), res: make(chan resultMsg, 1)}
	r.mu.Lock()
	r.pending[a.Run] = d
	r.mu.Unlock()
	defer func() {
		// From here on an ack or result of this dispatch is stale: a
		// superseded placement reporting in late, a zombie worker back from
		// a partition.
		r.mu.Lock()
		delete(r.pending, a.Run)
		w.inflight--
		r.mu.Unlock()
	}()

	start := time.Now()
	msg := dispatchMsg{RunID: a.Run, Attempt: d.attempt, Tenant: a.Tenant, Spec: ws}
	if err := send(r.port, RouterPort, w.port, KindDispatch, msg); err != nil {
		r.workerFailed(w)
		dispatchSendErr.Inc()
		r.reportErr(fmt.Errorf("fleet: dispatch %s to %s: %w", a.Run, w.id, err))
		return nil, errUnplaced
	}
	accepted := func() {
		r.mu.Lock()
		w.failures = 0
		r.mu.Unlock()
		dispatchOK.Inc()
		metricPlacementSeconds.Observe(time.Since(start).Seconds())
	}
	timer := time.NewTimer(dispatchDeadline)
	defer timer.Stop()
	ack, deadline := d.ack, timer.C
	for {
		select {
		case verdict := <-ack:
			if verdict.Refused {
				// The spec is at fault, not the worker: the run fails here,
				// since a retry or this process would refuse it the same way.
				dispatchRejected.Inc()
				return nil, &remoteError{text: verdict.Err}
			}
			if verdict.Err != "" {
				r.workerFailed(w)
				dispatchRejected.Inc()
				return nil, errUnplaced
			}
			accepted()
			ack, deadline = nil, nil
		case res := <-d.res:
			if ack != nil && res.State != stateLost {
				accepted() // the result outran its ack
			}
			return r.settle(a, w, res)
		case <-deadline:
			// No acknowledgment within the deadline. The worker may still have
			// admitted the run (the ack was lost); the attempt number makes any
			// late result from it stale, and a duplicate execution computes the
			// identical result into the same atomic checkpoint store.
			r.workerFailed(w)
			dispatchTimeout.Inc()
			return nil, errUnplaced
		case <-r.stopCh:
			return nil, errors.New("fleet: router closed")
		}
	}
}

// settle turns the end of a placed dispatch — the worker's result, or the
// loss of the worker — into what the lifecycle is told.
func (r *Router) settle(a *sched.Attempt, w *workerState, res resultMsg) (*core.RunResult, error) {
	drained := res.State == string(sched.StateDrained)
	switch {
	case res.State == stateLost, drained && !interrupted(a):
		// Lost with its worker — or the worker drained (it is shutting
		// down) while the fleet is not: the run goes back to the queue and
		// continues on a survivor from its checkpoints.
		r.mu.Lock()
		r.failovers++
		r.mu.Unlock()
		metricFailovers.Inc()
		return nil, &remoteError{"fleet: worker " + w.id + " lost", sched.ErrLost}
	case drained:
		return nil, &remoteError{res.Err, core.ErrInterrupted}
	case res.State == string(sched.StateDone):
		return res.Result, nil
	default:
		return nil, &remoteError{text: res.Err}
	}
}

// workerFailed charges one dispatch failure against w's circuit breaker.
func (r *Router) workerFailed(w *workerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w.failures++
	if w.failures >= breakerThreshold && time.Now().After(w.openUntil) {
		w.openUntil = time.Now().Add(breakerCooldown)
		w.failures = 0
		metricBreakerOpens.Inc()
	}
}

// pendingFor returns the dispatch an ack or result answers, or nil when
// that dispatch is no longer the run's current one.
func (r *Router) pendingFor(runID string, attempt int) *dispatch {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.pending[runID]; d != nil && d.attempt == attempt {
		return d
	}
	return nil
}

// recvLoop consumes the router mailbox until the port closes.
func (r *Router) recvLoop(inbox <-chan agents.Message) {
	defer r.wg.Done()
	for m := range inbox {
		var err error
		switch m.Kind {
		case KindHello:
			var h helloMsg
			if err = agents.Decode(m, &h); err == nil {
				r.handleHello(h)
			}
		case KindHeartbeat:
			var hb heartbeatMsg
			if err = agents.Decode(m, &hb); err == nil {
				r.handleHeartbeat(hb)
			}
		case KindAck:
			var a ackMsg
			if err = agents.Decode(m, &a); err == nil {
				if d := r.pendingFor(a.RunID, a.Attempt); d != nil {
					select {
					case d.ack <- a:
					default: // a worker repeating itself
					}
				}
			}
		case KindResult:
			var res resultMsg
			if err = res.unmarshalBinary(m.Payload); err == nil && res.State != stateLost {
				if d := r.pendingFor(res.RunID, res.Attempt); d != nil {
					select {
					case d.res <- res:
					default:
					}
				}
			}
		case KindBye:
			var b byeMsg
			if err = agents.Decode(m, &b); err == nil {
				r.handleBye(b)
			}
		}
		if err != nil {
			r.reportErr(fmt.Errorf("fleet: bad %s: %w", m.Kind, err))
		}
	}
}

// liveLocked counts registered, unevicted workers. Callers hold r.mu.
func (r *Router) liveLocked() int {
	live := 0
	for _, w := range r.workers {
		if !w.evicted {
			live++
		}
	}
	return live
}

func (r *Router) handleHello(h helloMsg) {
	if h.ID == "" {
		return
	}
	r.mu.Lock()
	w := r.workers[h.ID]
	if w == nil || w.evicted {
		w = &workerState{id: h.ID, port: WorkerPort(h.ID)}
		r.workers[h.ID] = w
	}
	// A hello is a worker (re)introducing itself: clear the stale view.
	w.slots = h.Slots
	w.draining = false
	w.failures = 0
	w.openUntil = time.Time{}
	w.lastBeat = time.Now()
	w.reading = monitor.Reading{CPU: 1, MemoryMB: h.MemoryMB, BandwidthMBps: h.BandwidthMBps}
	live := r.liveLocked()
	r.mu.Unlock()
	metricWorkers.Set(float64(live))
	r.life.Kick() // the fleet grew
}

func (r *Router) handleHeartbeat(hb heartbeatMsg) {
	metricHeartbeats.Inc()
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[hb.ID]
	if w == nil || w.evicted {
		// Heartbeat from a worker we do not know (router restarted, or the
		// worker was evicted while partitioned): ignore the beat; the
		// worker re-hellos periodically.
		return
	}
	w.lastBeat = time.Now()
	if hb.Slots > 0 {
		w.slots = hb.Slots
	}
	w.reading = monitor.Reading{CPU: hb.CPU, MemoryMB: hb.MemoryMB, BandwidthMBps: hb.BandwidthMBps}
}

func (r *Router) handleBye(b byeMsg) {
	r.mu.Lock()
	if w := r.workers[b.ID]; w != nil {
		w.draining = true
	}
	r.mu.Unlock()
}

// evictLoop scans for workers silent past the heartbeat window. Its tick
// also re-evaluates dispatch, which is how capacity that returns with the
// clock alone — a breaker cooling down — reaches the queue.
func (r *Router) evictLoop() {
	defer r.wg.Done()
	interval := max(r.cfg.HeartbeatTimeout/4, 10*time.Millisecond)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-ticker.C:
		}
		now := time.Now()
		var silent []string
		r.mu.Lock()
		for id, w := range r.workers {
			if !w.evicted && now.Sub(w.lastBeat) > r.cfg.HeartbeatTimeout {
				silent = append(silent, id)
			}
		}
		r.mu.Unlock()
		for _, id := range silent {
			r.evict(id, causeSilence)
		}
		r.life.Kick()
	}
}

// evict removes a worker from rotation and tells every dispatch placed on
// it that it is lost; each comes back through the lifecycle's queue and
// resumes on a survivor (or, during a fleet drain, is recorded drained).
func (r *Router) evict(id, cause string) {
	r.mu.Lock()
	w := r.workers[id]
	if w == nil || w.evicted {
		r.mu.Unlock()
		return
	}
	w.evicted = true
	r.evictions++
	orphans := 0
	for _, d := range r.pending {
		if d.w == w {
			orphans++
			select {
			case d.res <- resultMsg{State: stateLost}:
			default: // its result is already there
			}
		}
	}
	live := r.liveLocked()
	r.mu.Unlock()
	metricEvictions.With(cause).Inc()
	metricWorkers.Set(float64(live))
	r.reportErr(fmt.Errorf("fleet: evicted worker %s (%s), %d runs to fail over", id, cause, orphans))
}

// Workers lists the router's view of the fleet, evicted members included.
func (r *Router) Workers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerInfo{
			ID:            w.id,
			Slots:         w.slots,
			Active:        w.inflight,
			CPU:           w.reading.CPU,
			LastHeartbeat: w.lastBeat,
			BreakerOpen:   now.Before(w.openUntil),
			Evicted:       w.evicted,
			Draining:      w.draining,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns the router's aggregate state.
func (r *Router) Stats() Stats {
	st := Stats{Stats: r.life.Stats()}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	st.Workers = r.liveLocked()
	for _, w := range r.workers {
		if r.placeable(w, now) {
			st.Reachable++
		}
	}
	st.Failovers, st.Evictions, st.LocalFallbacks = r.failovers, r.evictions, r.fallbacks
	return st
}

// Draining reports whether a fleet drain has begun — the /readyz signal.
func (r *Router) Draining() bool { return r.life.Draining() }

// Drain gracefully stops the fleet: the lifecycle stops admitting and
// settles its backlog, every live worker is asked to drain (their
// in-flight runs checkpoint at the next regrid boundary and report back
// drained-resumable), and Drain returns once every attempt has ended — or
// earlier with ctx's error.
func (r *Router) Drain(ctx context.Context) error {
	if r.life.BeginDrain() {
		var ports []string
		r.mu.Lock()
		for _, w := range r.workers {
			if !w.evicted {
				ports = append(ports, w.port)
			}
		}
		r.mu.Unlock()
		for _, p := range ports {
			if err := send(r.port, RouterPort, p, KindDrain, struct{}{}); err != nil {
				r.reportErr(fmt.Errorf("fleet: drain %s: %w", p, err))
			}
		}
	}
	return r.life.Drain(ctx)
}

// Stopped returns a channel closed once a drain completes — however it was
// initiated (Drain, Close, or the HTTP drain endpoint). Serving binaries
// select on it to exit after a remote drain.
func (r *Router) Stopped() <-chan struct{} { return r.life.Stopped() }

// Close drains with no deadline, then stops the router's loops and
// releases its mailbox.
func (r *Router) Close() error {
	err := r.Drain(context.Background())
	r.stopO.Do(func() { close(r.stopCh) })
	r.port.Unregister(RouterPort)
	r.wg.Wait()
	return err
}
