package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/sched"
)

// WorkerConfig sizes a fleet Worker.
type WorkerConfig struct {
	// Port is the worker's control-network access — typically an
	// agents.Client dialed at the broker (required).
	Port agents.Port
	// ID is the worker's fleet-wide identity (required). Its mailbox is
	// WorkerPort(ID).
	ID string

	// Slots is the local run-pool size (default 2).
	Slots int
	// HeartbeatEvery paces capacity heartbeats (default 1s). Every tenth
	// heartbeat is preceded by a re-hello, so a worker the router evicted
	// during a partition re-introduces itself once the link heals.
	HeartbeatEvery time.Duration

	// Materialize turns dispatched wire specs into executable runs
	// (default DefaultMaterializer()).
	Materialize Materializer
	// OnError receives asynchronous failures; nil discards.
	OnError func(error)
}

// The resources every worker advertises: the non-CPU terms of the Fig. 4
// capacity formula.
const (
	workerMemoryMB      = 4096
	workerBandwidthMBps = 100
)

func (c *WorkerConfig) fill() {
	if c.Slots <= 0 {
		c.Slots = 2
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.Materialize == nil {
		c.Materialize = DefaultMaterializer()
	}
}

// Worker executes the fleet runs dispatched to it by the Router: it
// advertises forecast capacity in heartbeats, admits dispatches into a
// local sched pool, and reports each run's terminal state back. Create
// with NewWorker; stop with Drain or Close.
type Worker struct {
	cfg      WorkerConfig
	port     agents.Port
	mailbox  string
	pool     *sched.Scheduler
	forecast monitor.Meta // over the pool's utilization, one sample per heartbeat

	mu       sync.Mutex
	attempts map[string]int // fleet run ID -> attempt being executed here

	gone chan struct{} // closed when the inbox closes (link torn down)
	byeO sync.Once
	wg   sync.WaitGroup
}

// NewWorker registers the worker's mailbox, announces it to the router,
// and starts its receive and heartbeat loops.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg.fill()
	if cfg.Port == nil || cfg.ID == "" {
		return nil, fmt.Errorf("fleet: worker needs a Port and an ID")
	}
	mailbox := WorkerPort(cfg.ID)
	inbox, err := cfg.Port.Register(mailbox, 256)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	w := &Worker{
		cfg:      cfg,
		port:     cfg.Port,
		mailbox:  mailbox,
		pool:     sched.New(sched.Config{Workers: cfg.Slots}),
		attempts: make(map[string]int),
		gone:     make(chan struct{}),
	}
	if err := w.hello(); err != nil {
		cfg.Port.Unregister(mailbox)
		return nil, err
	}
	w.wg.Add(2)
	go w.recvLoop(inbox)
	go w.heartbeatLoop()
	return w, nil
}

func (w *Worker) reportErr(err error) {
	if w.cfg.OnError != nil {
		w.cfg.OnError(err)
	}
}

func (w *Worker) hello() error {
	return send(w.port, w.mailbox, RouterPort, KindHello, helloMsg{
		ID:            w.cfg.ID,
		Slots:         w.cfg.Slots,
		MemoryMB:      workerMemoryMB,
		BandwidthMBps: workerBandwidthMBps,
	})
}

// heartbeatLoop advertises forecast capacity until the worker stops or its
// link tears down. Utilization samples feed the worker's meta-forecaster,
// so the advertised CPU figure is the *predicted* next availability.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.cfg.HeartbeatEvery)
	defer ticker.Stop()
	seq := 0
	for {
		select {
		case <-w.pool.Stopped():
			return
		case <-w.gone:
			return
		case <-ticker.C:
		}
		seq++
		if seq%10 == 0 {
			if err := w.hello(); err != nil {
				w.reportErr(fmt.Errorf("fleet: worker %s re-hello: %w", w.cfg.ID, err))
			}
		}
		st := w.pool.Stats()
		active := st.Active + st.QueueDepth
		hb := heartbeatMsg{
			ID:            w.cfg.ID,
			Seq:           seq,
			CPU:           advertise(&w.forecast, active, w.cfg.Slots),
			Active:        active,
			Slots:         w.cfg.Slots,
			MemoryMB:      workerMemoryMB,
			BandwidthMBps: workerBandwidthMBps,
		}
		if err := send(w.port, w.mailbox, RouterPort, KindHeartbeat, hb); err != nil {
			w.reportErr(fmt.Errorf("fleet: worker %s heartbeat: %w", w.cfg.ID, err))
		}
	}
}

// advertise feeds m one utilization sample, active runs over slots (capped
// at 1: queued runs push it above), and returns the CPU figure a heartbeat
// advertises: one minus the predicted next utilization, in [0, 1]. This is
// the worker's half of the paper's Fig. 4 capacity pipeline: the router
// places runs against where capacity is heading rather than where it
// momentarily was.
func advertise(m *monitor.Meta, active, slots int) float64 {
	m.Update(min(float64(active)/float64(slots), 1))
	return min(max(1-m.Predict(), 0), 1)
}

// recvLoop consumes the worker mailbox until the port closes.
func (w *Worker) recvLoop(inbox <-chan agents.Message) {
	defer w.wg.Done()
	defer close(w.gone)
	for m := range inbox {
		switch m.Kind {
		case KindDispatch:
			var d dispatchMsg
			if err := agents.Decode(m, &d); err != nil {
				w.reportErr(fmt.Errorf("fleet: worker %s bad dispatch: %w", w.cfg.ID, err))
				continue
			}
			w.handleDispatch(d)
		case KindDrain:
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				if err := w.Drain(context.Background()); err != nil {
					w.reportErr(fmt.Errorf("fleet: worker %s drain: %w", w.cfg.ID, err))
				}
			}()
		}
	}
}

// handleDispatch admits one placement into the local pool and acks the
// verdict. On admission a watcher goroutine reports the terminal state.
func (w *Worker) handleDispatch(d dispatchMsg) {
	ack := func(errText string, refused bool) {
		msg := ackMsg{RunID: d.RunID, Attempt: d.Attempt, Err: errText, Refused: refused}
		if err := send(w.port, w.mailbox, RouterPort, KindAck, msg); err != nil {
			w.reportErr(fmt.Errorf("fleet: worker %s ack %s: %w", w.cfg.ID, d.RunID, err))
		}
	}
	if w.pool.Draining() { // before paying for a materialization
		ack("worker draining", false)
		return
	}
	w.mu.Lock()
	if _, active := w.attempts[d.RunID]; active {
		// A superseded attempt of this run is still executing here; running
		// it twice in one pool would double-write its checkpoint store.
		w.mu.Unlock()
		ack("run already active on this worker", false)
		return
	}
	w.mu.Unlock()

	spec, err := w.cfg.Materialize(d.Spec)
	if err != nil {
		ack(fmt.Sprintf("materialize: %v", err), true)
		return
	}
	st, err := w.pool.Submit(sched.SubmitRequest{Tenant: d.Tenant, Weight: d.Spec.Weight, Spec: spec})
	if err != nil {
		ack(err.Error(), false)
		return
	}
	w.mu.Lock()
	w.attempts[d.RunID] = d.Attempt
	w.mu.Unlock()
	ack("", false)

	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		final, err := w.pool.Wait(context.Background(), st.ID)
		w.mu.Lock()
		delete(w.attempts, d.RunID)
		w.mu.Unlock()
		res := resultMsg{RunID: d.RunID, Attempt: d.Attempt}
		if err != nil {
			res.State = string(sched.StateFailed)
			res.Err = err.Error()
		} else {
			res.State = string(final.State)
			res.Err = final.Error
			res.Resumable = final.Resumable
			res.Result = final.Result
		}
		payload, err := res.marshalBinary()
		if err == nil {
			err = w.port.Send(agents.Message{From: w.mailbox, To: RouterPort, Kind: KindResult, Payload: payload})
		}
		if err != nil {
			w.reportErr(fmt.Errorf("fleet: worker %s result %s: %w", w.cfg.ID, d.RunID, err))
		}
	}()
}

// Draining reports whether the worker has begun draining — its /readyz
// signal. A draining pool refuses dispatches, which the ack passes on.
func (w *Worker) Draining() bool { return w.pool.Draining() }

// Stopped returns a channel closed once the pool has drained — however
// that was initiated (Drain, Close, or a router KindDrain). Serving
// binaries select on it, then call Drain, which returns once the router
// has been told goodbye.
func (w *Worker) Stopped() <-chan struct{} { return w.pool.Stopped() }

// Drain gracefully stops the worker: the local pool drains (in-flight runs
// checkpoint at their next regrid boundary and report drained-resumable to
// the router through their watchers), then the worker says goodbye.
// Idempotent; concurrent calls wait for the same drain.
func (w *Worker) Drain(ctx context.Context) error {
	if err := w.pool.Drain(ctx); err != nil {
		return err
	}
	w.byeO.Do(func() {
		if err := send(w.port, w.mailbox, RouterPort, KindBye, byeMsg{ID: w.cfg.ID}); err != nil {
			w.reportErr(fmt.Errorf("fleet: worker %s bye: %w", w.cfg.ID, err))
		}
	})
	return nil
}

// Close drains with no deadline, releases the mailbox and waits for the
// worker's goroutines (result watchers included) to finish.
func (w *Worker) Close() error {
	err := w.Drain(context.Background())
	w.port.Unregister(w.mailbox)
	w.wg.Wait()
	return err
}
