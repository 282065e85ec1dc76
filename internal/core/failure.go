package core

import (
	"fmt"
	"sort"

	"github.com/pragma-grid/pragma/internal/partition"
)

// assign asks strat for an assignment of ctx's NProcs processors, the
// machine's nodes 0..NProcs-1 (further nodes are spares that no assignment
// uses). Run calls it at every regrid and every mid-interval recovery: it
// senses which of those nodes are alive (the role system sensors play in
// §3.4.2) and, when some have failed, has strat partition across the
// survivors, named in StepContext.Nodes, then remaps the owners onto the
// live nodes — Pragma's "respond to system failures" (§1). The strategy
// sees the standing assignment in survivor ids, or none when it has work
// on a node that has since died. A machine with no scheduled failure
// passes ctx through untouched. An assignment for another processor count
// than the strategy was asked for is an error.
func assign(strat Strategy, ctx *StepContext) (*partition.Assignment, string, error) {
	sub, alive := ctx, []int(nil)
	if len(ctx.Machine.Failures) > 0 {
		alive = ctx.Machine.AliveNodes(ctx.SimTime)
		alive = alive[:sort.SearchInts(alive, ctx.NProcs)]
		switch len(alive) {
		case 0:
			return nil, "", fmt.Errorf("core: no nodes alive at t=%g", ctx.SimTime)
		case ctx.NProcs:
			alive = nil
		default:
			survivors := *ctx
			survivors.NProcs, survivors.Nodes = len(alive), alive
			survivors.PrevAssignment = survivorRelative(ctx.PrevAssignment, alive)
			sub = &survivors
		}
	}
	a, label, err := strat.Assign(sub)
	if err != nil {
		return nil, "", err
	}
	if a.NProcs != sub.NProcs {
		return nil, "", fmt.Errorf("core: %s assigned %d processors, want %d", strat.Name(), a.NProcs, sub.NProcs)
	}
	if alive == nil {
		return a, label, nil
	}
	// Remap survivor-relative owners onto machine node ids; dead nodes
	// keep zero work.
	remapped := &partition.Assignment{
		NProcs:    ctx.NProcs,
		Units:     a.Units,
		Owner:     make([]int, len(a.Owner)),
		SplitCost: a.SplitCost,
	}
	for i, o := range a.Owner {
		if o < 0 || o >= len(alive) {
			return nil, "", fmt.Errorf("core: %s placed unit %d on processor %d of %d", strat.Name(), i, o, len(alive))
		}
		remapped.Owner[i] = alive[o]
	}
	return remapped, label, nil
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
