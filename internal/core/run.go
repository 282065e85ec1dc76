package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// RunConfig configures a trace replay.
type RunConfig struct {
	// Machine is the simulated execution environment (required).
	Machine *cluster.Cluster
	// Cost converts grid quantities into seconds; zero value means
	// cluster.DefaultCostModel.
	Cost cluster.CostModel
	// NProcs is the processor count; 0 uses all machine nodes.
	NProcs int
	// WorkModel supplies per-snapshot region weights; nil means uniform.
	// Like Strategy.Assign, Run may call it on a goroutine other than its
	// caller's, ahead of the simulation, one call at a time and in regrid
	// order.
	WorkModel func(idx int) samr.WorkModel
	// PartitionSecondsPerUnit models the partitioner's own running cost:
	// partitioning time = units * assignment.SplitCost * this (0 = 1e-6).
	// The SP-based partitioners pay their optimal-split search here while
	// pBD-ISP stays cheap — the "partitioning time" component of the PAC
	// metric.
	PartitionSecondsPerUnit float64
	// CheckpointDir, when set, persists run state at regrid boundaries so
	// a crashed replay can resume: each Run call appends to a log of its
	// own in this directory (see resume.go and record.go for the format).
	CheckpointDir string
	// CheckpointEvery checkpoints after every k-th regrid interval
	// (default 1 = every interval).
	CheckpointEvery int
	// Resume restarts from the latest valid checkpoint in CheckpointDir,
	// skipping the already-completed regrid intervals. A torn or
	// CRC-damaged tail is detected and the run continues from the last
	// intact record before it; with no usable checkpoint the run starts
	// from the beginning. The final RunResult is identical to an
	// uninterrupted run's.
	Resume bool
	// Interrupt, when non-nil, is polled before every regrid's decision.
	// Once it is closed the run takes no further decision and stops at the
	// boundary of the first regrid it did not decide: every interval whose
	// decision began before the interrupt runs to completion. Deciding in
	// order that is the next boundary; deciding ahead it may be up to three
	// intervals later, two decided and queued and one being decided
	// (DESIGN.md §12). With CheckpointDir configured the
	// loop state is written and synced before Run returns, so a later
	// Resume continues exactly where the interrupted run stopped. Run then
	// fails with an error wrapping ErrInterrupted, or with the sync's error
	// if the records could not be made durable. This is the graceful-drain
	// hook the scheduler uses (see internal/sched).
	Interrupt <-chan struct{}
	// OnRegrid, when non-nil, is called once per regrid cycle with the
	// snapshot index and the partitioner the meta-strategy chose for it.
	// It runs on Run's goroutine between cycles, after the intervals before
	// idx are finished and checkpointed, so it must be fast and must not
	// block — the scheduler uses it to publish regrid-trace events to
	// streaming subscribers (see internal/stream).
	OnRegrid func(idx int, partitioner string)
	// DecideInOrder has Run take each decision itself, on its caller's
	// goroutine, once the interval before it is finished, instead of
	// deciding ahead on a second goroutine (DESIGN.md §16). The scheduler
	// sets it: its runs already fill every core.
	DecideInOrder bool
}

// ErrInterrupted is the sentinel a Run interrupted through
// RunConfig.Interrupt fails with (test with errors.Is). The run state as of
// the last completed regrid interval has been checkpointed when a
// CheckpointDir was configured, so the run is resumable.
var ErrInterrupted = errors.New("run interrupted at regrid boundary")

// InterruptedError is the concrete error an interrupted Run returns. It
// wraps ErrInterrupted (errors.Is keeps matching) and records where the
// run stopped, so callers that requeue interrupted work — the scheduler's
// checkpoint-based preemption — can account the exact progress this
// attempt made instead of guessing from wall time, and distinguish a
// drain (the whole pool is stopping) from a preemption (this one run
// yielded its worker) by their own bookkeeping.
type InterruptedError struct {
	// Next is the first regrid interval that has not run: intervals
	// [0, Next) are complete and, when a checkpoint store is configured,
	// durable. A Resume against the same CheckpointDir continues at
	// Next.
	Next int
	// Completed counts the intervals this attempt finished before the
	// interrupt landed (Next minus the interval the attempt started at).
	Completed int
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("core: regrid %d: %v", e.Next, ErrInterrupted)
}

func (e *InterruptedError) Unwrap() error { return ErrInterrupted }

// interrupted reports whether the interrupt channel has fired. Closing the
// channel is the intended signal; a single sent value also works but only
// interrupts one of the runs sharing the channel.
func interrupted(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// SnapshotStat records what happened at one regrid point.
type SnapshotStat struct {
	Index       int
	Partitioner string
	Quality     partition.Quality
	StepTime    float64 // summed BSP time of the interval's coarse steps
	Overhead    float64 // partitioning + migration seconds at this regrid
}

// RunResult aggregates a full replay.
type RunResult struct {
	Strategy string
	// TotalTime is the simulated execution time in seconds — the
	// "run-time" column of Tables 4 and 5.
	TotalTime float64
	// ComputeTime and CommTime accumulate the per-step maxima (they
	// overlap inside a BSP step; their sum exceeds step time).
	ComputeTime float64
	CommTime    float64
	// PartitionTime and MigrationTime accumulate repartitioning overheads.
	PartitionTime float64
	MigrationTime float64
	// MaxImbalance is the worst percentage load imbalance over all
	// regrids — Table 4's "max. load imbalance".
	MaxImbalance float64
	// AvgImbalance is the mean imbalance over regrids.
	AvgImbalance float64
	// AMREfficiency is the mean hierarchy AMR efficiency over snapshots —
	// Table 4's "AMR efficiency".
	AMREfficiency float64
	// Switches counts partitioner changes between consecutive regrids.
	Switches int
	// Recoveries counts mid-interval failure recoveries: steps that could
	// not complete (work on a dead node) and were repaired by re-invoking
	// the strategy.
	Recoveries int
	// DegradedRegrids counts regrids the strategy decided in degraded
	// mode (control network partitioned, local-only policy); nonzero only
	// for strategies exposing a DegradedCount, like AgentManaged.
	DegradedRegrids int
	// Steps is the number of coarse steps simulated.
	Steps int
	// Snapshots records per-regrid details.
	Snapshots []SnapshotStat
}

// runScratch is the memory a Run works in: buffers whose capacity is
// worth keeping from one run to the next and whose contents never reach
// an output. The partition plan's candidates are handed over to fresh
// assignments (DESIGN.md §16), the regrid kernel rebuilds a communication
// plan before it is read (§11), and the work vector and checkpoint record
// are rewritten before each use; Cluster.Step and the checkpoint store
// copy what they keep. A run of another shape, or a resumed one, therefore
// decides and computes exactly what it would in fresh memory.
type runScratch struct {
	part   *partition.PartitionPlan
	regrid regrid
	record []byte
	decide decider
}

// scratchPool recycles run scratch, so a served run does not grow its
// plans and buffers from empty, regrid by regrid, every time.
var scratchPool = sync.Pool{New: func() any {
	sc := &runScratch{part: partition.NewPartitionPlan()}
	sc.decide.init()
	return sc
}}

// degradedCount is the number of regrids strat decided in degraded mode.
func degradedCount(strat Strategy) int {
	if dg, ok := strat.(interface{ DegradedCount() int }); ok {
		return dg.DegradedCount()
	}
	return 0
}

// Run replays an adaptation trace on the simulated machine under the given
// strategy and returns the accumulated execution profile.
func Run(tr *samr.Trace, strat Strategy, cfg RunConfig) (*RunResult, error) {
	if tr == nil || len(tr.Snapshots) == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if cfg.Machine == nil {
		return nil, fmt.Errorf("core: no machine")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	nprocs := cfg.NProcs
	if nprocs == 0 {
		nprocs = cfg.Machine.NProcs()
	}
	if nprocs < 1 || nprocs > cfg.Machine.NProcs() {
		return nil, fmt.Errorf("core: nprocs %d outside machine size %d", nprocs, cfg.Machine.NProcs())
	}
	cost := cfg.Cost
	if cost == (cluster.CostModel{}) {
		cost = cluster.DefaultCostModel()
	}
	puCost := cfg.PartitionSecondsPerUnit
	if puCost == 0 {
		puCost = 1e-6
	}
	wmAt := cfg.WorkModel
	if wmAt == nil {
		wmAt = func(int) samr.WorkModel { return samr.UniformWorkModel{} }
	}
	stepsPerRegrid := tr.RegridEvery
	if stepsPerRegrid < 1 {
		stepsPerRegrid = 1
	}

	res := &RunResult{Strategy: strat.Name()}
	var simTime float64

	// The run works in scratch from the pool and gives it back once
	// nothing reads it, on every return path: the deferred Put below is
	// registered before the store's deferred Close, so it runs after it.
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	rg := &sc.regrid
	*rg = regrid{machine: cfg.Machine, model: cost, puCost: puCost, plans: rg.plans, work: rg.work}
	var imbSum, effSum float64
	startIdx := 0

	var store *checkpoint.Store
	ckptEvery := cfg.CheckpointEvery
	if cfg.CheckpointDir != "" {
		store = &checkpoint.Store{Dir: cfg.CheckpointDir}
		// Close syncs this attempt's records. The interrupt path closes
		// the store itself and reports its error; on every other return
		// the run completed or failed, so no caller resumes from them and
		// the error is dropped.
		defer store.Close()
		if ckptEvery < 1 {
			ckptEvery = 1
		}
	}
	if cfg.Resume && store != nil {
		ck, err := loadRunCheckpoint(store, tr, strat, nprocs)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			startIdx = ck.Next
			simTime = ck.SimTime
			imbSum, effSum = ck.ImbSum, ck.EffSum
			res = ck.result()
			if a := ck.PrevAssignment; a != nil {
				// The first post-resume regrid is costed after the
				// outgoing assignment, on the trace's own snapshot —
				// recomputed, never serialized.
				h := tr.Snapshots[startIdx-1].H
				rg.build(h, a)
				rg.commit(a, ck.PrevLabel)
			}
		}
	}

	// saved is the boundary the checkpoint directory already holds (the
	// resumed one, then this attempt's latest record), and from the first
	// interval this attempt's next record starts its stats at: 0 for its
	// first record, which is a full base.
	saved, from := startIdx, 0
	// saveAt appends the loop state with next as the first interval a
	// resumed run executes; everything before next is complete and
	// accounted in res.
	saveAt := func(next int) error {
		ck := Checkpoint{
			Trace: tr.Name, Snapshots: len(tr.Snapshots), Strategy: strat.Name(), NProcs: nprocs,
			From: from, Next: next, Stats: res.Snapshots[from:next], PrevAssignment: rg.a, PrevLabel: rg.label,
			SimTime: simTime, ImbSum: imbSum, EffSum: effSum, Degraded: res.DegradedRegrids + degradedCount(strat),
			ComputeTime: res.ComputeTime, CommTime: res.CommTime, PartitionTime: res.PartitionTime,
			MigrationTime: res.MigrationTime, MaxImbalance: res.MaxImbalance,
			Switches: res.Switches, Recoveries: res.Recoveries, Steps: res.Steps,
		}
		if cs, ok := strat.(CheckpointableStrategy); ok {
			state, err := cs.CheckpointState()
			if err != nil {
				return fmt.Errorf("core: checkpoint strategy state: %w", err)
			}
			ck.StrategyState = state
		}
		sc.record = appendCheckpoint(sc.record[:0], &ck)
		if _, err := store.Save(next, sc.record); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		saved, from = next, next
		return nil
	}

	// The deciding stage is joined before the scratch goes back to the
	// pool: this deferred call runs before the Put registered above.
	dec := &sc.decide
	dec.start(tr, strat, &cfg, nprocs, wmAt, sc.part, rg.a, startIdx, simTime)
	defer dec.join()

	for idx := startIdx; idx < len(tr.Snapshots); idx++ {
		regridStart := time.Now()
		d := dec.next(idx, simTime, rg.a)
		if d.stop {
			// The interrupt closed before this regrid's decision.
			// Everything up to idx is complete; write it unless the
			// directory already holds exactly this boundary (there is
			// nothing to save before the first interval), sync it, and stop. The run is reported
			// interrupted only once its records are durable.
			if store != nil {
				if idx > saved {
					if err := saveAt(idx); err != nil {
						return nil, err
					}
				}
				if err := store.Close(); err != nil {
					return nil, fmt.Errorf("core: %w", err)
				}
			}
			metricInterrupts.Inc()
			return nil, &InterruptedError{Next: idx, Completed: idx - startIdx}
		}
		if d.panicked != nil {
			panic(d.panicked)
		}
		cycle := d.cycle
		if d.err != nil {
			cycle.End(telemetry.String("error", d.err.Error()))
			return nil, fmt.Errorf("core: regrid %d: %w", idx, d.err)
		}
		snap, ctx, a, label := tr.Snapshots[idx], d.ctx, d.a, d.label
		if cfg.OnRegrid != nil {
			cfg.OnRegrid(idx, label)
		}

		stat, partTime, migTime := rg.cost(idx, snap.H, a, label, cycle)
		res.PartitionTime += partTime
		res.MigrationTime += migTime
		simTime += partTime + migTime
		metricRegridSeconds.Observe(time.Since(regridStart).Seconds())
		cycle.StartSpan("steps")
		for s := 0; s < stepsPerRegrid; s++ {
			st := rg.step(simTime)
			for math.IsInf(st.Total, 1) {
				// A node carrying work died mid-interval. Re-assign across
				// the survivors at the current time and charge a full
				// redistribution. The replacement uses only nodes alive
				// now, so a replacement that stalls in turn lost another
				// node while its data moved, and once none is left assign
				// fails the run. A strategy that fails to recover fails
				// the run.
				ctx.simTime = simTime
				ctx.PrevAssignment = a
				a2, label2, err := assign(strat, ctx)
				if err != nil {
					cycle.End(telemetry.String("error", err.Error()))
					return nil, fmt.Errorf("core: regrid %d: recovery: %w", idx, err)
				}
				recMig := cfg.Machine.MigrationTime(float64(snap.H.TotalCells()), cost)
				simTime += recMig
				res.MigrationTime += recMig
				// The replacement is costed after the dead assignment, so
				// the interval's recorded quality and the gauges describe
				// the assignment that finishes it.
				rg.swap()
				rec, _, _ := rg.cost(idx, snap.H, a2, label2, cycle)
				a = a2
				stat.Partitioner, stat.Quality = rec.Partitioner, rec.Quality
				stat.Overhead += recMig
				res.Recoveries++
				metricRecoveries.Inc()
				cycle.Event("recovery", telemetry.String("partitioner", label2))
				st = rg.step(simTime)
			}
			simTime += st.Total
			stat.StepTime += st.Total
			res.ComputeTime += st.Compute
			res.CommTime += st.Comm
			res.Steps++
		}
		cycle.EndSpan(telemetry.String("count", strconv.Itoa(stepsPerRegrid)))
		metricSteps.Add(uint64(stepsPerRegrid))
		metricRegrids.Inc()
		cycle.End()
		res.Snapshots = append(res.Snapshots, stat)
		imbSum += stat.Quality.Imbalance
		if stat.Quality.Imbalance > res.MaxImbalance {
			res.MaxImbalance = stat.Quality.Imbalance
		}
		effSum += snap.H.AMREfficiency()
		if rg.commit(a, stat.Partitioner) {
			res.Switches++
			metricSwitches.Inc()
		}

		if store != nil && (idx+1)%ckptEvery == 0 && idx+1 < len(tr.Snapshots) {
			if err := saveAt(idx + 1); err != nil {
				return nil, err
			}
		}
	}
	res.TotalTime = simTime
	res.DegradedRegrids += degradedCount(strat)
	n := float64(len(tr.Snapshots))
	res.AvgImbalance = imbSum / n
	res.AMREfficiency = effSum / n
	return res, nil
}
