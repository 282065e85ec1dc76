package core

import (
	"strconv"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// regrid is a run's interval kernel: it costs an assignment after the one
// before it — communication plan, work vector, PAC metric, simulated
// partitioning and migration seconds — and commits it as the outgoing
// assignment. A regrid, a mid-interval recovery and a resume all go
// through it. It lives in the run's pooled scratch: its plans and work
// vector keep their capacity from run to run (DESIGN.md §16), and Run
// clears everything else.
type regrid struct {
	machine *cluster.Cluster
	model   cluster.CostModel
	puCost  float64

	// plans[0] is the plan of the assignment costed last, which the steps
	// read; plans[1], once src is set, that of the one it was costed
	// after: the build's source and the migration diff's operand. Before
	// that plans[1] is only a build target, since a pooled plan describes
	// another run's assignment. The run never holds a third (DESIGN.md §11).
	plans [2]*partition.CommPlan
	src   bool
	work  []float64 // the costed assignment's, read by Cluster.Step only

	// The outgoing assignment and the partitioner that finished its
	// interval: what the next regrid's strategy and the checkpoint see.
	a     *partition.Assignment
	label string
}

// build rebuilds plans[0] for a on h with plans[1] as its source, so a
// level whose boxes did not change copies its contacts, and returns that
// source (nil when there is none).
func (r *regrid) build(h *samr.Hierarchy, a *partition.Assignment) (from *partition.CommPlan) {
	if r.src {
		from = r.plans[1]
	}
	r.plans[0] = partition.RebuildCommPlan(r.plans[0], from, h, a)
	return from
}

// cost prices a, labelled label, at regrid idx on h, after the assignment
// plans[1] describes. It returns the interval's SnapshotStat before its
// steps, and the seconds spent partitioning and migrating, which the
// stat's Overhead sums. The quality is published to the PAC gauges.
func (r *regrid) cost(idx int, h *samr.Hierarchy, a *partition.Assignment, label string, cycle *telemetry.Trace) (stat SnapshotStat, partSec, migSec float64) {
	cycle.StartSpan("pac")
	from := r.build(h, a)
	r.work = a.WorkInto(r.work)
	cycle.EndSpan(telemetry.String("comm_volume", formatG4(r.plans[0].Stats.Volume)))
	cycle.StartSpan("migration")
	q := partition.EvalQualityPlan(r.plans[0], from, r.work, 0)
	migSec = r.machine.MigrationTime(q.Migration*float64(h.TotalCells()), r.model)
	cycle.EndSpan(
		telemetry.String("imbalance_pct", formatG4(q.Imbalance)),
		telemetry.String("fraction", formatG4(q.Migration)))
	setPACGauges(q)
	partSec = float64(r.puCost * float64(len(a.Units)) * max(a.SplitCost, 1))
	return SnapshotStat{Index: idx, Partitioner: label, Quality: q, Overhead: partSec + migSec}, partSec, migSec
}

// swap makes the assignment costed last the one the next cost is costed
// after. A recovery swaps the dead assignment in before costing its
// replacement; commit swaps at the end of every interval.
func (r *regrid) swap() {
	r.plans[0], r.plans[1] = r.plans[1], r.plans[0]
	r.src = true
}

// commit makes a, costed last, the outgoing assignment, and label the
// partitioner that finished its interval. It reports a switch: a label
// other than the previous interval's.
func (r *regrid) commit(a *partition.Assignment, label string) (switched bool) {
	r.swap()
	switched = r.label != "" && label != r.label
	r.a, r.label = a, label
	return switched
}

// step simulates one coarse step of the costed assignment at time t.
func (r *regrid) step(t float64) cluster.StepCost {
	st := &r.plans[0].Stats
	return r.machine.Step(r.work, st.PerProcVolume, st.PerProcMessages, t, r.model)
}

func formatG4(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
