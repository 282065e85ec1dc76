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
	// Interrupt, when non-nil, is polled at every regrid boundary. Once it
	// is closed the run stops before starting the next interval: with
	// CheckpointDir configured the loop state is written and synced before
	// Run returns, so a later Resume continues exactly where the
	// interrupted run stopped. Run then fails with an error wrapping
	// ErrInterrupted, or with the sync's error if the records could not be
	// made durable. This is the graceful-drain hook the scheduler uses (see
	// internal/sched).
	Interrupt <-chan struct{}
	// OnRegrid, when non-nil, is called once per regrid cycle with the
	// snapshot index and the partitioner the meta-strategy chose for it.
	// It runs on the replay goroutine between cycles, so it must be fast
	// and must not block — the scheduler uses it to publish regrid-trace
	// events to streaming subscribers (see internal/stream).
	OnRegrid func(idx int, partitioner string)
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
// assignments (DESIGN.md §16), a communication plan is rebuilt before it
// is read (§11), and the work vector and checkpoint record are rewritten
// before each use; Cluster.Step and the checkpoint store copy what they
// keep. A run of another shape, or a resumed one, therefore decides and
// computes exactly what it would in fresh memory.
type runScratch struct {
	part   *partition.PartitionPlan
	plans  [2]*partition.CommPlan // nil until a run has built them
	work   []float64
	record []byte
}

// scratchPool recycles run scratch, so a served run does not grow its
// plans and buffers from empty, regrid by regrid, every time.
var scratchPool = sync.Pool{New: func() any {
	return &runScratch{part: partition.NewPartitionPlan()}
}}

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
	var prevA *partition.Assignment
	var prevH *samr.Hierarchy

	// The run works in scratch from the pool and gives it back once
	// nothing reads it, on every return path: the deferred Put below is
	// registered before the store's deferred Close, so it runs after it.
	sc := scratchPool.Get().(*runScratch)
	// The run's two communication plans. prevPlan is the outgoing
	// assignment's, which the next migration diff reads; plan is the one
	// before it, dead once that diff has run, so each regrid builds into
	// plan's buffers and the two swap. A plan is never rebuilt while
	// anything reads it, and the run never holds a third (DESIGN.md §11).
	// A nil prevPlan means there is no diff at the first regrid, so the
	// pool's second plan waits as spare: a build target only, taken by
	// the first build that has no plan of its own to build into.
	plan, spare := sc.plans[0], sc.plans[1]
	var prevPlan *partition.CommPlan
	target := func(p *partition.CommPlan) *partition.CommPlan {
		if p == nil {
			p, spare = spare, nil
		}
		return p
	}
	// The partitioners' scratch: buffers whose capacity survives from
	// regrid to regrid, and from run to run, and whose contents do not,
	// so a resumed run produces bit-identical assignments from whatever
	// the pool hands it.
	partPlan := sc.part
	// The interval's per-processor work, rewritten at every regrid and
	// recovery; Cluster.Step reads it and keeps no reference.
	work := sc.work
	// The encoded checkpoint record; the store copies it.
	record := sc.record
	defer func() {
		// The spare is still unused only while prevPlan is nil.
		sc.plans = [2]*partition.CommPlan{plan, prevPlan}
		if prevPlan == nil {
			sc.plans[1] = spare
		}
		sc.work, sc.record = work, record
		scratchPool.Put(sc)
	}()
	var prevLabel string
	var imbSum, effSum float64
	startIdx := 0
	degradedBase := 0

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
			prevLabel = ck.PrevLabel
			imbSum, effSum = ck.ImbSum, ck.EffSum
			degradedBase = ck.Degraded
			res = ck.result()
			prevA = ck.PrevAssignment
			// The hierarchy the outgoing assignment partitioned is the
			// trace's own snapshot — recomputed, never serialized.
			prevH = tr.Snapshots[startIdx-1].H
			if prevA != nil && prevH != nil {
				// The first post-resume regrid diffs its migration
				// against the outgoing assignment's plan.
				prevPlan = partition.RebuildCommPlan(target(nil), nil, prevH, prevA)
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
			From: from, Next: next, Stats: res.Snapshots[from:next],
			SimTime: simTime, PrevLabel: prevLabel, ImbSum: imbSum, EffSum: effSum, Degraded: degradedBase,
			ComputeTime: res.ComputeTime, CommTime: res.CommTime, PartitionTime: res.PartitionTime,
			MigrationTime: res.MigrationTime, MaxImbalance: res.MaxImbalance,
			Switches: res.Switches, Recoveries: res.Recoveries, Steps: res.Steps,
			PrevAssignment: prevA,
		}
		if dg, ok := strat.(interface{ DegradedCount() int }); ok {
			ck.Degraded += dg.DegradedCount()
		}
		if cs, ok := strat.(CheckpointableStrategy); ok {
			state, err := cs.CheckpointState()
			if err != nil {
				return fmt.Errorf("core: checkpoint strategy state: %w", err)
			}
			ck.StrategyState = state
		}
		record = appendCheckpoint(record[:0], &ck)
		if _, err := store.Save(next, record); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		saved, from = next, next
		return nil
	}

	for idx := startIdx; idx < len(tr.Snapshots); idx++ {
		if interrupted(cfg.Interrupt) {
			// A drain landed between intervals. Everything up to idx is
			// complete; write it unless the directory already holds
			// exactly this boundary (there is nothing to save before the
			// first interval), sync it, and stop. The run is reported
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
		snap := tr.Snapshots[idx]
		regridStart := time.Now()
		cycle := telemetry.DefaultTracer.Begin("regrid",
			telemetry.String("strategy", strat.Name()),
			telemetry.String("index", strconv.Itoa(idx)))
		ctx := &StepContext{
			Index:          idx,
			Trace:          tr,
			Snap:           snap,
			WM:             wmAt(idx),
			NProcs:         nprocs,
			SimTime:        simTime,
			Machine:        cfg.Machine,
			PrevAssignment: prevA,
			PrevHierarchy:  prevH,
			PartitionPlan:  partPlan,
			CycleTrace:     cycle,
		}
		cycle.StartSpan("repartition")
		a, label, err := strat.Assign(ctx)
		if err != nil {
			cycle.End(telemetry.String("error", err.Error()))
			return nil, fmt.Errorf("core: regrid %d: %w", idx, err)
		}
		cycle.EndSpan(telemetry.String("partitioner", label))
		if prevLabel != "" && label != prevLabel {
			res.Switches++
			metricSwitches.Inc()
		}
		prevLabel = label
		if cfg.OnRegrid != nil {
			cfg.OnRegrid(idx, label)
		}

		cycle.StartSpan("pac")
		// One communication plan per regrid: its stats and unit index feed
		// the PAC metric, the migration diff, and every BSP step of the
		// interval. The previous regrid's plan is its source: a level whose
		// boxes did not change copies its contacts from there.
		plan = partition.RebuildCommPlan(plan, prevPlan, snap.H, a)
		comm := plan.Stats
		work = a.WorkInto(work)
		units := float64(len(a.Units))
		splitCost := a.SplitCost
		if splitCost < 1 {
			splitCost = 1
		}
		partTime := puCost * units * splitCost
		q := partition.Quality{
			CommVolume:   comm.Volume,
			CommMessages: comm.Messages,
			Imbalance:    partition.ImbalanceOf(work),
		}
		cycle.EndSpan(
			telemetry.String("imbalance_pct", strconv.FormatFloat(q.Imbalance, 'g', 4, 64)),
			telemetry.String("comm_volume", strconv.FormatFloat(q.CommVolume, 'g', 4, 64)))
		cycle.StartSpan("migration")
		var migTime float64
		if prevPlan != nil {
			q.Migration = plan.MigrationFrom(prevPlan)
			migTime = cfg.Machine.MigrationTime(q.Migration*float64(snap.H.TotalCells()), cost)
		}
		cycle.EndSpan(telemetry.String("fraction", strconv.FormatFloat(q.Migration, 'g', 4, 64)))
		boxes := 0
		for _, lb := range snap.H.Levels {
			boxes += len(lb)
		}
		if boxes > 0 {
			q.Overhead = units / float64(boxes)
		}
		setPACGauges(q)

		res.PartitionTime += partTime
		res.MigrationTime += migTime
		simTime += partTime + migTime

		stat := SnapshotStat{Index: idx, Partitioner: label, Quality: q, Overhead: partTime + migTime}
		metricRegridSeconds.Observe(time.Since(regridStart).Seconds())
		cycle.StartSpan("steps")
		for s := 0; s < stepsPerRegrid; s++ {
			sc := cfg.Machine.Step(work, comm.PerProcVolume, comm.PerProcMessages, simTime, cost)
			if math.IsInf(sc.Total, 1) {
				// A node carrying work died mid-interval. Give the
				// strategy one chance to recover: re-assign at the current
				// time and charge a full redistribution. Strategies that
				// ignore liveness re-produce the stalled assignment and
				// the run stays infinite — which is the honest outcome.
				ctx.SimTime = simTime
				ctx.PrevAssignment, ctx.PrevHierarchy = a, snap.H
				a2, label2, err := strat.Assign(ctx)
				if err == nil {
					recMig := cfg.Machine.MigrationTime(float64(snap.H.TotalCells()), cost)
					simTime += recMig
					res.MigrationTime += recMig
					a = a2
					stat.Partitioner = label2
					// Re-plan for the replacement assignment and refresh
					// everything derived from the dead one: the recorded
					// quality, the published gauges, and the interval's
					// overhead — they must describe the assignment that
					// actually finishes the interval. prevPlan's migration
					// diff has run, so the replacement is built into it, with
					// the dead plan of the same snapshot as its source, and
					// the dead plan takes its place as the one migrated from.
					plan, prevPlan = partition.RebuildCommPlan(target(prevPlan), plan, snap.H, a), plan
					comm = plan.Stats
					work = a.WorkInto(work)
					units = float64(len(a.Units))
					q.CommVolume = comm.Volume
					q.CommMessages = comm.Messages
					q.Imbalance = partition.ImbalanceOf(work)
					q.Migration = plan.MigrationFrom(prevPlan)
					if boxes > 0 {
						q.Overhead = units / float64(boxes)
					}
					setPACGauges(q)
					stat.Quality = q
					stat.Overhead += recMig
					res.Recoveries++
					metricRecoveries.Inc()
					cycle.Event("recovery", telemetry.String("partitioner", label2))
					sc = cfg.Machine.Step(work, comm.PerProcVolume, comm.PerProcMessages, simTime, cost)
				}
			}
			simTime += sc.Total
			stat.StepTime += sc.Total
			res.ComputeTime += sc.Compute
			res.CommTime += sc.Comm
			res.Steps++
		}
		cycle.EndSpan(telemetry.String("count", strconv.Itoa(stepsPerRegrid)))
		metricSteps.Add(uint64(stepsPerRegrid))
		metricRegrids.Inc()
		cycle.End()
		res.Snapshots = append(res.Snapshots, stat)
		imbSum += q.Imbalance
		if q.Imbalance > res.MaxImbalance {
			res.MaxImbalance = q.Imbalance
		}
		effSum += snap.H.AMREfficiency()
		prevA, prevH = a, snap.H
		plan, prevPlan = target(prevPlan), plan

		if store != nil && (idx+1)%ckptEvery == 0 && idx+1 < len(tr.Snapshots) {
			if err := saveAt(idx + 1); err != nil {
				return nil, err
			}
		}
	}
	res.TotalTime = simTime
	res.DegradedRegrids = degradedBase
	if dg, ok := strat.(interface{ DegradedCount() int }); ok {
		res.DegradedRegrids += dg.DegradedCount()
	}
	n := float64(len(tr.Snapshots))
	res.AvgImbalance = imbSum / n
	res.AMREfficiency = effSum / n
	return res, nil
}
