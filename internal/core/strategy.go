package core

import (
	"encoding/json"
	"fmt"
	"sync"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// StepContext carries everything a strategy may consult when partitioning
// at a regrid point.
type StepContext struct {
	// Index is the regrid (snapshot) index.
	Index int
	// Trace is the application adaptation trace being replayed.
	Trace *samr.Trace
	// Snap is the current snapshot.
	Snap samr.Snapshot
	// WM weighs grid regions.
	WM samr.WorkModel
	// NProcs is the processor count to partition across.
	NProcs int
	// SimTime is the current simulated time (for load-dependent state).
	SimTime float64
	// Machine is the simulated execution environment.
	Machine *cluster.Cluster
	// PrevAssignment and PrevHierarchy describe the outgoing placement
	// (nil at the first regrid).
	PrevAssignment *partition.Assignment
	PrevHierarchy  *samr.Hierarchy
	// PartitionPlan, when non-nil, is the scratch memory partitioners work
	// in (units, curve keys, sort indices, weights, the prepared work
	// model) and Adaptive holds its two candidates in. core.Run takes one
	// from a pool for each run and gives it back when it returns, so the
	// plan is valid only for the duration of that Run: a strategy must
	// not keep it, or anything it holds, past its Assign. Nothing but
	// capacity survives a call, so output is bit-identical with or
	// without it.
	PartitionPlan *partition.PartitionPlan
	// CycleTrace, when non-nil, records this regrid cycle in the telemetry
	// trace ring; strategies annotate it with classification and selection
	// events (nil-safe to use).
	CycleTrace *telemetry.Trace
}

// Partition runs p on the step's snapshot, in the step's PartitionPlan
// scratch when the partitioner can use it.
func (ctx *StepContext) Partition(p partition.Partitioner) (*partition.Assignment, error) {
	if ip, ok := p.(partition.IncrementalPartitioner); ok && ctx.PartitionPlan != nil {
		return ip.PartitionIncremental(ctx.Snap.H, ctx.WM, ctx.NProcs, ctx.PartitionPlan)
	}
	return p.Partition(ctx.Snap.H, ctx.WM, ctx.NProcs)
}

// Strategy decides how each regrid point is partitioned. Implementations
// return the assignment and a label describing the partitioner used (shown
// in Table 3/4 reporting).
type Strategy interface {
	// Name identifies the strategy ("SFC", "adaptive", "system-sensitive", ...).
	Name() string
	// Assign partitions the current snapshot.
	Assign(ctx *StepContext) (*partition.Assignment, string, error)
}

// Static applies one fixed partitioner at every regrid — the non-adaptive
// baselines of Table 4.
type Static struct {
	P partition.Partitioner
}

// Name implements Strategy.
func (s Static) Name() string { return s.P.Name() }

// Assign implements Strategy.
func (s Static) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	a, err := ctx.Partition(s.P)
	return a, s.P.Name(), err
}

// Adaptive is the application-sensitive meta-partitioning strategy: at
// every regrid the octant state selects the partitioner ("dynamically
// switching partitioners", §4.5). The optional imbalance guard is the
// reactive side of Pragma's quality-driven management: the PAC metric of
// the fresh assignment is inspected and, when the selected partitioner
// balances badly on this particular hierarchy, the meta-partitioner falls
// back to the balance-oriented G-MISP+SP.
type Adaptive struct {
	// Meta selects the partitioner; nil means the paper's configuration
	// (NewMetaPartitioner), built once per process and shared.
	Meta *MetaPartitioner
	// ImbalanceGuard, when positive, re-partitions with G-MISP+SP whenever
	// the selected partitioner's load imbalance exceeds this percentage
	// and keeps the better-balanced assignment.
	ImbalanceGuard float64
}

// defaultMeta is the meta-partitioner of every Adaptive with a nil Meta.
// Nothing mutates it: callers that install their own Lookup or Policy
// construct their own MetaPartitioner.
var defaultMeta = sync.OnceValue(NewMetaPartitioner)

// Name implements Strategy.
func (a Adaptive) Name() string { return "adaptive" }

// Assign implements Strategy. The selected partitioner runs as a
// candidate in the step's PartitionPlan; when the guard fires, G-MISP+SP
// runs as a second one, and only the assignment kept is materialized
// (DESIGN.md §16).
func (a Adaptive) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	meta := a.Meta
	if meta == nil {
		meta = defaultMeta()
	}
	p, oct, err := meta.SelectAt(ctx.Trace, ctx.Index)
	if err != nil {
		return nil, "", err
	}
	ctx.CycleTrace.Event("octant-classified", telemetry.String("octant", oct.String()))
	ctx.CycleTrace.Event("partitioner-selected", telemetry.String("partitioner", p.Name()))
	plan := ctx.PartitionPlan
	if plan == nil {
		plan = partition.NewPartitionPlan()
	}
	cand, err := plan.Propose(0, p, ctx.Snap.H, ctx.WM, ctx.NProcs)
	if err != nil {
		return nil, "", err
	}
	if a.ImbalanceGuard <= 0 || p.Name() == "G-MISP+SP" {
		return cand.Materialize(), p.Name(), nil
	}
	if imb := cand.Imbalance(); imb > a.ImbalanceGuard {
		fallback, err := meta.Lookup("G-MISP+SP")
		if err != nil {
			return nil, "", err
		}
		alt, err := plan.Propose(1, fallback, ctx.Snap.H, ctx.WM, ctx.NProcs)
		if err != nil {
			return nil, "", err
		}
		// The guard costs an extra partitioning pass; charge it.
		alt.SplitCost += cand.SplitCost * float64(cand.Len()) / float64(max(alt.Len(), 1))
		if alt.Imbalance() < imb {
			ctx.CycleTrace.Event("imbalance-guard", telemetry.String("fallback", fallback.Name()))
			return alt.Materialize(), fallback.Name(), nil
		}
	}
	return cand.Materialize(), p.Name(), nil
}

// SystemSensitive is the strategy of §4.6 (Fig. 4): resource monitoring
// feeds the capacity calculator and the heterogeneous partitioner
// distributes work proportionally to relative capacities. Matching the
// paper's experiment, capacities are computed "only once before the start
// of the simulation" unless RecalibrateEvery is positive.
type SystemSensitive struct {
	// P is the capacity-weighted partitioner (defaults to
	// partition.Heterogeneous).
	P partition.CapacityPartitioner
	// Weights configure the capacity calculator (defaults to
	// monitor.DefaultWeights).
	Weights monitor.Weights
	// RecalibrateEvery re-reads capacities every k regrids; 0 computes
	// them once at the start.
	RecalibrateEvery int

	caps []float64
}

// Name implements Strategy.
func (s *SystemSensitive) Name() string { return "system-sensitive" }

// Assign implements Strategy.
func (s *SystemSensitive) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	p := s.P
	if p == nil {
		p = partition.Heterogeneous{}
	}
	w := s.Weights
	if w == (monitor.Weights{}) {
		w = monitor.DefaultWeights()
	}
	recalc := s.caps == nil ||
		(s.RecalibrateEvery > 0 && ctx.Index%s.RecalibrateEvery == 0)
	if recalc {
		readings := monitor.ClusterSensor{Cluster: ctx.Machine}.Sample(ctx.SimTime)
		if ctx.NProcs < len(readings) {
			readings = readings[:ctx.NProcs]
		}
		caps, err := monitor.Capacities(readings, w)
		if err != nil {
			return nil, "", fmt.Errorf("core: capacity calculation: %w", err)
		}
		s.caps = caps
	}
	a, err := p.PartitionWeighted(ctx.Snap.H, ctx.WM, s.caps)
	return a, p.Name(), err
}

// Capacities returns a copy of the relative capacities last computed by
// Assign (nil before the first assignment).
func (s *SystemSensitive) Capacities() []float64 {
	if s.caps == nil {
		return nil
	}
	return append([]float64(nil), s.caps...)
}

// CheckpointState implements CheckpointableStrategy: the capacity cache is
// decision state ("computed only once before the start of the simulation"
// in the paper's experiment), so a resumed run must reuse it rather than
// re-sample the machine at resume time.
func (s *SystemSensitive) CheckpointState() ([]byte, error) {
	return json.Marshal(s.caps)
}

// RestoreState implements CheckpointableStrategy.
func (s *SystemSensitive) RestoreState(data []byte) error {
	return json.Unmarshal(data, &s.caps)
}
