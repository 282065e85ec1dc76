package core

import (
	"encoding/json"
	"fmt"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// AgentManaged is the automated adaptation loop of §4.7: instead of
// unconditionally repartitioning at every regrid, component agents resident
// at each simulated node monitor local state and publish it to the Message
// Center; the application delegated manager consolidates the reports,
// watches for threshold events (load imbalance, octant change), queries the
// policy base through Adaptive, and only then directs a repartitioning.
// Between events the standing assignment is reprojected onto the new
// hierarchy, avoiding repartitioning and migration overheads.
//
// The strategy owns a live control network: construct it with
// NewAgentManaged (in-process Center) or NewAgentManagedOn (caller-supplied
// ports, e.g. TCP clients). The standing assignment is the run's own
// (StepContext.PrevAssignment). The octant of the last regrid and the
// agents' event latches carry over from one Run to the next, so give each
// Run a strategy of its own; CheckpointState carries them into a resumed
// one.
type AgentManaged struct {
	meta    *MetaPartitioner
	adm     *agents.ADM
	nodes   []*agents.ComponentAgent
	loadRef []float64

	// ImbalanceEvent is the per-node relative-load threshold that triggers
	// repartitioning (fired by node agents).
	ImbalanceEvent float64

	// Health reports control-network liveness; nil means always healthy.
	// When it returns false the strategy runs in degraded mode: agent
	// polling and ADM consolidation are skipped (the network is
	// partitioned) and partitioning decisions fall back to local-only
	// policy — pure octant classification from the trace, no event gating.
	// Typically wired to pragma's Client.Degraded over the node clients.
	Health func() bool

	prevOctant  octant.Octant
	wasDegraded bool
	// DegradedRegrids counts regrids decided in degraded (local-only)
	// mode because Health reported the control network down.
	DegradedRegrids int
}

// NewAgentManaged wires the control network for nprocs simulated nodes on
// an in-process Message Center.
func NewAgentManaged(nprocs int, imbalanceEventPct float64) (*AgentManaged, error) {
	if nprocs < 1 {
		return nil, fmt.Errorf("core: agent-managed needs at least one node")
	}
	center := agents.NewCenter()
	ports := make([]agents.Port, nprocs)
	for i := range ports {
		ports[i] = center
	}
	return NewAgentManagedOn(center, ports, imbalanceEventPct)
}

// NewAgentManagedOn wires the control network over caller-supplied ports:
// the ADM registers on admPort (the broker side) and one component agent
// per entry of nodePorts (e.g. TCP clients of a served Center, emulating a
// distributed control network). len(nodePorts) fixes the node count.
func NewAgentManagedOn(admPort agents.Port, nodePorts []agents.Port, imbalanceEventPct float64) (*AgentManaged, error) {
	if len(nodePorts) < 1 {
		return nil, fmt.Errorf("core: agent-managed needs at least one node")
	}
	if imbalanceEventPct <= 0 {
		imbalanceEventPct = 25
	}
	am := &AgentManaged{
		meta:           NewMetaPartitioner(),
		loadRef:        make([]float64, len(nodePorts)),
		ImbalanceEvent: imbalanceEventPct,
	}
	adm, err := agents.NewADM("adm", admPort, am.meta.Policy)
	if err != nil {
		return nil, err
	}
	am.adm = adm
	threshold := 1 + imbalanceEventPct/100
	for i, port := range nodePorts {
		i := i
		sensor := agents.SensorFunc{
			SensorName: "relative-load",
			Fn:         func() (float64, error) { return am.loadRef[i], nil },
		}
		rule := agents.EventRule{
			Sensor: "relative-load",
			Above:  &threshold,
			Event:  "load-imbalance",
		}
		ca, err := agents.NewComponentAgent(fmt.Sprintf("node-%d", i), port,
			[]agents.Sensor{sensor}, nil, []agents.EventRule{rule})
		if err != nil {
			return nil, err
		}
		am.nodes = append(am.nodes, ca)
	}
	return am, nil
}

// DegradedCount reports how many regrids were decided in degraded mode;
// core.Run lifts it into RunResult.DegradedRegrids.
func (am *AgentManaged) DegradedCount() int { return am.DegradedRegrids }

// Name implements Strategy.
func (am *AgentManaged) Name() string { return "agent-managed" }

// Assign implements Strategy: agents sense the previous interval's load
// distribution, the ADM consolidates and decides whether adaptation is
// needed, and either Adaptive repartitions (per the policy base's octant
// recommendation) or the standing assignment is reprojected.
func (am *AgentManaged) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	state, err := octant.StateAt(ctx.Trace, ctx.Index, am.meta.Window)
	if err != nil {
		return nil, "", err
	}
	oct := octant.Classify(state, am.meta.Thresholds)

	// When the control network is partitioned, skip the agent/ADM round
	// entirely — no polls can reach the broker — and decide from local
	// state alone: repartition on octant change, reproject otherwise.
	degraded := am.Health != nil && !am.Health()
	if degraded {
		am.DegradedRegrids++
		if !am.wasDegraded {
			metricDegradedTransitions.Inc()
		}
		ctx.CycleTrace.Event("degraded-mode")
	}
	am.wasDegraded = degraded

	// Publish per-node relative loads from the outgoing assignment, let
	// the agents poll, and consolidate at the ADM.
	prev := ctx.PrevAssignment
	needRepartition := prev == nil || oct != am.prevOctant
	am.prevOctant = oct
	if !degraded && prev != nil {
		work := prev.Work()
		var total float64
		for _, w := range work {
			total += w
		}
		mean := total / float64(len(work))
		for i := range am.loadRef {
			if mean > 0 && i < len(work) {
				am.loadRef[i] = work[i] / mean
			} else {
				am.loadRef[i] = 0
			}
		}
		event, err := am.publish()
		if err != nil {
			return nil, "", err
		}
		needRepartition = needRepartition || event
	}

	if !needRepartition {
		// Reproject the standing assignment onto the new hierarchy: keep
		// each new unit on the processor owning its region before.
		if reused, ok := reproject(prev, ctx.Snap.H, ctx.WM); ok {
			ctx.CycleTrace.Event("octant-classified", telemetry.String("octant", oct.String()))
			ctx.CycleTrace.Event("reprojected")
			return reused, "reprojected", nil
		}
	}
	return Adaptive{Meta: am.meta}.Assign(ctx)
}

// publish has every node agent poll its relative load and the ADM absorb
// the reports, and reports whether an agent raised an event.
func (am *AgentManaged) publish() (event bool, err error) {
	for _, ca := range am.nodes {
		if _, err := ca.Poll(); err != nil {
			return false, err
		}
	}
	am.adm.Absorb()
	return len(am.adm.PendingEvents()) > 0, nil
}

// agentState is AgentManaged's serialized resume state.
type agentState struct {
	Octant octant.Octant `json:"octant"`
	Loads  []float64     `json:"loads"`
}

// CheckpointState implements CheckpointableStrategy. The run checkpoints
// the standing assignment itself; what it cannot give back is the octant
// of the last regrid, which the next one is compared with, and the loads
// the agents last published: an agent raises its event when its load
// crosses the threshold, not while the load stays above it.
func (am *AgentManaged) CheckpointState() ([]byte, error) {
	return json.Marshal(agentState{Octant: am.prevOctant, Loads: am.loadRef})
}

// RestoreState implements CheckpointableStrategy: it publishes the loads
// once through the agents, so each event latch is where the checkpointed
// run left it, and drops the events that raises, which the checkpointed
// run already acted on.
func (am *AgentManaged) RestoreState(data []byte) error {
	var st agentState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Loads) != len(am.loadRef) {
		return fmt.Errorf("core: agent-managed state has %d loads for %d agents", len(st.Loads), len(am.loadRef))
	}
	am.prevOctant = st.Octant
	copy(am.loadRef, st.Loads)
	_, err := am.publish()
	return err
}

// reproject maps a previous assignment onto a new hierarchy: each box of
// the new hierarchy is assigned to the processor that owned the largest
// share of its region before. Returns false when the previous assignment
// cannot cover the new hierarchy (e.g. a level appeared).
func reproject(prev *partition.Assignment, h *samr.Hierarchy, wm samr.WorkModel) (*partition.Assignment, bool) {
	byLevel := map[int][]int{}
	for i, u := range prev.Units {
		byLevel[u.Level] = append(byLevel[u.Level], i)
	}
	out := &partition.Assignment{NProcs: prev.NProcs, SplitCost: 1}
	for l, boxes := range h.Levels {
		ids := byLevel[l]
		if len(ids) == 0 {
			return nil, false
		}
		for _, b := range boxes {
			overlap := make(map[int]int64)
			var covered int64
			for _, i := range ids {
				if inter, ok := prev.Units[i].Box.Intersect(b); ok {
					overlap[prev.Owner[i]] += inter.Volume()
					covered += inter.Volume()
				}
			}
			if covered == 0 {
				return nil, false
			}
			best, bestVol := 0, int64(-1)
			for p, v := range overlap {
				if v > bestVol || (v == bestVol && p < best) {
					best, bestVol = p, v
				}
			}
			out.Units = append(out.Units, partition.Unit{Level: l, Box: b, Weight: wm.BoxWork(h, l, b)})
			out.Owner = append(out.Owner, best)
		}
	}
	return out, true
}

var _ Strategy = (*AgentManaged)(nil)
var _ CheckpointableStrategy = (*AgentManaged)(nil)
