package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// StepContext carries everything a strategy may consult when partitioning
// at a regrid point. Run may hand it to Assign on a goroutine other than
// its caller's, before the intervals ahead of the regrid are simulated
// (DESIGN.md §16, "Deciding ahead"); it asks for one decision at a time,
// in regrid order. What those intervals decide is reached only through
// SimTime, which waits for them. A context is valid for the duration of
// its Assign.
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
	// Machine is the simulated execution environment.
	Machine *cluster.Cluster
	// Nodes names the machine node each processor runs on, processor p on
	// Nodes[p]; nil means processor p is node p.
	Nodes []int
	// PrevAssignment is the outgoing placement (nil at the first regrid).
	PrevAssignment *partition.Assignment
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

	// simTime is what SimTime returns for a context Run did not decide
	// ahead, and for one built by hand.
	simTime float64
	// progress, set when Run decides ahead, is the stage SimTime waits on.
	progress *decider
}

// SimTime returns the simulated time at which the regrid takes effect
// (for load-dependent state). Deciding ahead, it blocks until the run has
// finished every interval before the regrid, since they decide it.
func (ctx *StepContext) SimTime() float64 {
	if ctx.progress != nil {
		return ctx.progress.simTimeAt(ctx.Index)
	}
	return ctx.simTime
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
// in Table 3/4 reporting). Run may call Assign on a goroutine other than
// its caller's, ahead of the simulation, one call at a time and in regrid
// order (see StepContext).
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
// of the simulation" unless RecalibrateEvery is positive or the processor
// count changes. Forecast makes it Pragma's proactive variant (§3.1), which
// the paper's experiment did not use; the ablations run it as
// {RecalibrateEvery: 1, Forecast: true}, named "proactive".
type SystemSensitive struct {
	// Weights configure the capacity calculator (defaults to
	// monitor.DefaultWeights).
	Weights monitor.Weights
	// RecalibrateEvery re-reads capacities every k regrids; 0 computes
	// them once at the start.
	RecalibrateEvery int
	// Forecast feeds a sample of the machine to one NWS meta-forecaster
	// per node at every regrid (monitor.Forecasts) and calibrates on their
	// predictions instead of on the current reading.
	Forecast bool

	caps      []float64
	forecasts *monitor.Forecasts // built at the first Assign (Forecast)
}

// Name implements Strategy.
func (s *SystemSensitive) Name() string {
	if s.Forecast {
		return "proactive"
	}
	return "system-sensitive"
}

// Assign implements Strategy.
func (s *SystemSensitive) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	w := s.Weights
	if w == (monitor.Weights{}) {
		w = monitor.DefaultWeights()
	}
	sample := monitor.ClusterSensor{Cluster: ctx.Machine}.Sample(ctx.SimTime())
	if s.Forecast {
		if s.forecasts == nil {
			s.forecasts = monitor.NewForecasts(len(sample))
		}
		if err := s.forecasts.Observe(sample); err != nil {
			return nil, "", fmt.Errorf("core: capacity calculation: %w", err)
		}
	}
	nodes := ctx.Nodes
	if nodes == nil {
		nodes = make([]int, min(ctx.NProcs, len(ctx.Machine.Nodes)))
		for p := range nodes {
			nodes[p] = p
		}
	}
	if len(s.caps) != len(nodes) || (s.RecalibrateEvery > 0 && ctx.Index%s.RecalibrateEvery == 0) {
		var err error
		if s.Forecast {
			s.caps, err = s.forecasts.Capacities(nodes, w)
		} else {
			// The sample holds every machine node; calibrate on the
			// processors' own.
			sel := make([]monitor.Reading, len(nodes))
			for p, k := range nodes {
				sel[p] = sample[k]
			}
			s.caps, err = monitor.Capacities(sel, w)
		}
		if err != nil {
			return nil, "", fmt.Errorf("core: capacity calculation: %w", err)
		}
	}
	p := partition.Heterogeneous{}
	a, err := p.PartitionWeighted(ctx.Snap.H, ctx.WM, s.caps, ctx.PartitionPlan)
	return a, p.Name(), err
}

// Capacities returns a copy of the relative capacities last computed by
// Assign (nil before the first assignment).
func (s *SystemSensitive) Capacities() []float64 { return slices.Clone(s.caps) }

// forecastState is a forecasting SystemSensitive's serialized resume
// state: the capacities and the forecasters' fixed-size binary state.
type forecastState struct {
	Caps      []float64 `json:"caps"`
	Forecasts []byte    `json:"forecasts"`
}

// ErrSampleHistoryState refuses a forecasting checkpoint that holds the
// machine's sample history instead of its forecasters' state: one written
// before the forecasters streamed, which cannot resume them.
var ErrSampleHistoryState = errors.New("core: forecasting checkpoint holds a sample history, not forecaster state")

// CheckpointState implements CheckpointableStrategy: the capacity cache is
// decision state ("computed only once before the start of the simulation"
// in the paper's experiment), so a resumed run must reuse it rather than
// re-sample the machine at resume time. With Forecast the forecasters'
// state is decision state too; without it the payload is the capacities'
// JSON array alone.
func (s *SystemSensitive) CheckpointState() ([]byte, error) {
	if !s.Forecast {
		return json.Marshal(s.caps)
	}
	st := forecastState{Caps: s.caps}
	if s.forecasts != nil {
		var err error
		if st.Forecasts, err = s.forecasts.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	return json.Marshal(st)
}

// RestoreState implements CheckpointableStrategy.
func (s *SystemSensitive) RestoreState(data []byte) error {
	if !s.Forecast {
		return json.Unmarshal(data, &s.caps)
	}
	var st struct {
		forecastState
		History json.RawMessage `json:"history"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.History != nil {
		return ErrSampleHistoryState
	}
	s.caps, s.forecasts = st.Caps, nil
	if len(st.Forecasts) > 0 {
		s.forecasts = &monitor.Forecasts{}
		return s.forecasts.UnmarshalBinary(st.Forecasts)
	}
	return nil
}
