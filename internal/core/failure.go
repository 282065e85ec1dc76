package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/pragma-grid/pragma/internal/partition"
)

// FailureAware wraps any strategy with fail-stop tolerance: before each
// regrid it senses which nodes are alive (the role system sensors play in
// §3.4.2) and, when nodes have failed, partitions across the survivors,
// named in StepContext.Nodes, and remaps processor ids onto the live nodes:
// the "respond to system failures" behavior of Pragma's reactive management.
// The inner strategy sees the standing assignment in survivor ids, or none
// when it has work on a node that has since died.
type FailureAware struct {
	// Inner produces the actual partitioning (required).
	Inner Strategy
	// FailuresSeen counts regrids at which dead nodes were detected.
	FailuresSeen int
}

// Name implements Strategy.
func (f *FailureAware) Name() string { return f.Inner.Name() + "+ft" }

// DegradedCount reports the inner strategy's degraded regrids, so a
// wrapped AgentManaged run counts them in RunResult.DegradedRegrids.
func (f *FailureAware) DegradedCount() int { return degradedCount(f.Inner) }

// Assign implements Strategy.
func (f *FailureAware) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	// The run's processors are nodes 0..NProcs-1; a machine's further
	// nodes are spares that no assignment uses.
	total := ctx.NProcs
	alive := ctx.Machine.AliveNodes(ctx.SimTime)
	alive = alive[:sort.SearchInts(alive, total)]
	if len(alive) == 0 {
		return nil, "", fmt.Errorf("core: no nodes alive at t=%g", ctx.SimTime)
	}
	if len(alive) == total {
		return f.Inner.Assign(ctx)
	}
	f.FailuresSeen++
	sub := *ctx
	sub.NProcs = len(alive)
	sub.Nodes = alive
	sub.PrevAssignment = survivorRelative(ctx.PrevAssignment, alive)
	a, label, err := f.Inner.Assign(&sub)
	if err != nil {
		return nil, "", err
	}
	// Remap survivor-relative owners onto machine node ids; dead nodes
	// keep zero work.
	remapped := &partition.Assignment{
		NProcs:    total,
		Units:     a.Units,
		Owner:     make([]int, len(a.Owner)),
		SplitCost: a.SplitCost,
	}
	for i, o := range a.Owner {
		remapped.Owner[i] = alive[o]
	}
	return remapped, label + "+ft", nil
}

// survivorRelative renumbers a, whose owners are machine node ids, onto
// the survivors alive lists: nil when a is nil or has work on a node alive
// does not list.
func survivorRelative(a *partition.Assignment, alive []int) *partition.Assignment {
	if a == nil {
		return nil
	}
	index := make(map[int]int, len(alive))
	for p, k := range alive {
		index[k] = p
	}
	out := &partition.Assignment{NProcs: len(alive), Units: a.Units, Owner: make([]int, len(a.Owner)), SplitCost: a.SplitCost}
	for i, o := range a.Owner {
		p, ok := index[o]
		if !ok {
			return nil
		}
		out.Owner[i] = p
	}
	return out
}

// failureAwareState is FailureAware's serialized resume state.
type failureAwareState struct {
	FailuresSeen int             `json:"failuresSeen"`
	Inner        json.RawMessage `json:"inner,omitempty"`
}

// CheckpointState implements CheckpointableStrategy: the failure counter
// and, when the wrapped strategy is itself checkpointable, its state.
func (f *FailureAware) CheckpointState() ([]byte, error) {
	st := failureAwareState{FailuresSeen: f.FailuresSeen}
	if cs, ok := f.Inner.(CheckpointableStrategy); ok {
		inner, err := cs.CheckpointState()
		if err != nil {
			return nil, err
		}
		st.Inner = inner
	}
	return json.Marshal(st)
}

// RestoreState implements CheckpointableStrategy.
func (f *FailureAware) RestoreState(data []byte) error {
	var st failureAwareState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	f.FailuresSeen = st.FailuresSeen
	if len(st.Inner) > 0 {
		cs, ok := f.Inner.(CheckpointableStrategy)
		if !ok {
			return fmt.Errorf("core: checkpoint carries inner-strategy state but %q cannot restore it", f.Inner.Name())
		}
		return cs.RestoreState(st.Inner)
	}
	return nil
}

var _ Strategy = (*FailureAware)(nil)
var _ CheckpointableStrategy = (*FailureAware)(nil)
