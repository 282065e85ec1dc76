package core

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// A run is two stages (DESIGN.md §16, "Deciding ahead"). The deciding
// stage builds each regrid's StepContext and asks the strategy for its
// assignment, in regrid order. The costing stage, on Run's goroutine,
// costs, simulates and checkpoints each interval. When a run decides
// ahead, the deciding stage runs on a goroutine of its own and hands its
// decisions down a queue that holds aheadDepth of them, so the next
// regrids are partitioned while the current interval is costed. Otherwise
// Run takes each decision itself once the interval before it is finished,
// which is the loop a run has always had.

// aheadDepth is how many decisions the queue between the stages holds.
// One more than a hand-off needs lets the deciding stage bank a cheap
// decision against an expensive one (a guarded regrid partitions twice),
// and no more keeps an interrupted run from running far past it.
const aheadDepth = 2

// decision is what the deciding stage hands the costing stage for one
// regrid: the assignment, its label, the context it was decided in and
// the regrid's cycle trace, which the deciding stage begins and the
// costing stage ends. A stop, an error or a panic ends the deciding stage.
type decision struct {
	a     *partition.Assignment
	label string
	ctx   *StepContext
	cycle *telemetry.Trace

	stop     bool  // no decision: the run is interrupted, or the trace is done
	err      error // from assign
	panicked any   // what the deciding stage panicked with
}

// last reports whether d is the deciding stage's final decision.
func (d *decision) last() bool { return d.stop || d.err != nil || d.panicked != nil }

// decider is a run's deciding stage. It lives in the run's pooled scratch
// with its queue, so a warm run allocates nothing for it, and Run joins it
// before the scratch goes back to the pool.
type decider struct {
	tr        *samr.Trace
	strat     Strategy
	wmAt      func(int) samr.WorkModel
	machine   *cluster.Cluster
	nprocs    int
	interrupt <-chan struct{}
	plan      *partition.PartitionPlan
	// prev is the outgoing assignment of the next decision: set by Run
	// before each decision in order, chained from decision to decision
	// ahead (a run that decides ahead has no recovery to replace one).
	prev *partition.Assignment

	ahead   bool
	from    int           // the first regrid the goroutine decides
	queue   chan decision // holds aheadDepth; empty whenever no run holds it
	loop    func()        // decideAll, bound once: starting it allocates nothing
	running bool          // Run has not yet received the goroutine's last decision
	quit    atomic.Bool   // Run is returning: decide nothing more

	// The costing stage's progress, which StepContext.SimTime waits on:
	// the first interval not yet finished, and the simulated time then.
	mu      sync.Mutex
	cond    sync.Cond
	reached int
	simTime float64
}

// init readies a decider that a pooled runScratch holds.
func (d *decider) init() {
	d.queue = make(chan decision, aheadDepth)
	d.loop = d.decideAll
	d.cond.L = &d.mu
}

// readsBetweenDecisions reports whether Run reads strat's state between
// its decisions: the checkpoint takes a CheckpointableStrategy's state
// and the degraded count at every boundary.
func readsBetweenDecisions(strat Strategy) bool {
	_, ckpt := strat.(CheckpointableStrategy)
	_, degraded := strat.(interface{ DegradedCount() int })
	return ckpt || degraded
}

// start readies the deciding stage for a run whose first interval is
// from, at simulated time simTime, after the outgoing assignment prev. A
// run decides in order when its machine has a failure schedule (a
// recovery calls the strategy in the middle of an interval), when Run
// reads its strategy's state between decisions, when only one processor
// runs Go code, or when its caller asks. Otherwise start launches the
// deciding goroutine.
func (d *decider) start(tr *samr.Trace, strat Strategy, cfg *RunConfig, nprocs int, wmAt func(int) samr.WorkModel,
	plan *partition.PartitionPlan, prev *partition.Assignment, from int, simTime float64) {
	d.tr, d.strat, d.wmAt, d.machine, d.nprocs, d.interrupt = tr, strat, wmAt, cfg.Machine, nprocs, cfg.Interrupt
	d.plan, d.prev, d.from = plan, prev, from
	d.reached, d.simTime = from, simTime
	d.quit.Store(false)
	d.ahead = len(cfg.Machine.Failures) == 0 && !cfg.DecideInOrder &&
		!readsBetweenDecisions(strat) && runtime.GOMAXPROCS(0) > 1
	if d.ahead {
		d.running = true
		go d.loop()
	}
}

// next returns the decision for regrid idx, which Run is about to cost
// at simulated time simTime after the outgoing assignment prev: taken now
// when the run decides in order, else received from the queue once the
// goroutine has it. Everything before idx is finished, so a decision
// waiting in StepContext.SimTime for idx may proceed.
func (d *decider) next(idx int, simTime float64, prev *partition.Assignment) decision {
	if !d.ahead {
		d.prev = prev
		return d.decide(idx, simTime)
	}
	d.mu.Lock()
	d.reached, d.simTime = idx, simTime
	d.mu.Unlock()
	d.cond.Broadcast()
	dec := <-d.queue
	if dec.last() {
		d.running = false
	}
	return dec
}

// join stops the deciding goroutine and waits until it has sent its last
// decision, discarding those Run will not cost, then drops the run's
// references. Run defers it: after join nothing touches the scratch.
func (d *decider) join() {
	if d.running {
		d.quit.Store(true)
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
		for dec := <-d.queue; !dec.last(); dec = <-d.queue {
		}
		d.running = false
	}
	d.tr, d.strat, d.wmAt, d.machine, d.interrupt, d.plan, d.prev = nil, nil, nil, nil, nil, nil, nil
}

// decideAll is the deciding goroutine: it decides from d.from on, in
// order, until a decision ends it. Sending that decision is the last
// thing it does.
func (d *decider) decideAll() {
	for idx := d.from; ; idx++ {
		dec := d.decideContained(idx)
		last := dec.last()
		d.queue <- dec
		if last {
			return
		}
	}
}

// decideContained decides regrid idx and turns a panic into a decision,
// which Run re-raises on its own goroutine.
func (d *decider) decideContained(idx int) (dec decision) {
	defer func() {
		if p := recover(); p != nil {
			dec = decision{panicked: p}
		}
	}()
	return d.decide(idx, 0)
}

// decide takes the decision for regrid idx, or none once the run is
// interrupted, returning or done. simTime is the context's simulated time
// when the run decides in order; deciding ahead, the context waits for it.
func (d *decider) decide(idx int, simTime float64) decision {
	if idx == len(d.tr.Snapshots) || d.quit.Load() || interrupted(d.interrupt) {
		return decision{stop: true}
	}
	cycle := telemetry.DefaultTracer.Begin("regrid",
		telemetry.String("strategy", d.strat.Name()),
		telemetry.String("index", strconv.Itoa(idx)))
	ctx := &StepContext{
		Index:          idx,
		Trace:          d.tr,
		Snap:           d.tr.Snapshots[idx],
		WM:             d.wmAt(idx),
		NProcs:         d.nprocs,
		Machine:        d.machine,
		PrevAssignment: d.prev,
		PartitionPlan:  d.plan,
		CycleTrace:     cycle,
		simTime:        simTime,
	}
	if d.ahead {
		ctx.progress = d
	}
	cycle.StartSpan("repartition")
	a, label, err := assign(d.strat, ctx)
	if err != nil {
		return decision{err: err, cycle: cycle}
	}
	cycle.EndSpan(telemetry.String("partitioner", label))
	d.prev = a
	return decision{a: a, label: label, ctx: ctx, cycle: cycle}
}

// simTimeAt waits until the costing stage has finished every interval
// before idx and returns the simulated time then. A run that is returning
// stops the wait; its decision is discarded.
func (d *decider) simTimeAt(idx int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.reached < idx && !d.quit.Load() {
		d.cond.Wait()
	}
	return d.simTime
}
