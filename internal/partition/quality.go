package partition

import (
	"time"

	"github.com/pragma-grid/pragma/internal/samr"
)

// Quality is the five-component metric the paper defines (§4.1) to
// characterize a PAC (partitioner, application, computer system) tuple:
// "Communication requirements, Load imbalance, Amount of data migration,
// Partitioning time, and Partitioning induced overheads."
type Quality struct {
	// CommVolume is the number of cell faces that cross processor
	// boundaries (intra-level ghost exchange) plus the weighted
	// inter-level transfer volume — the per-step communication requirement.
	CommVolume float64
	// CommMessages is the number of message events per coarse step:
	// distinct cross-processor unit-pair adjacencies, each weighted by how
	// often its level exchanges ghosts per coarse step (Ratio^level under
	// MIT sub-cycling). Coarse-granularity partitioners (pBD-ISP) win
	// here, which is how they "reduce communication overheads" on
	// latency-bound networks.
	CommMessages float64
	// Imbalance is the percentage load imbalance, 100*(max-avg)/avg.
	Imbalance float64
	// Migration is the fraction of co-resident grid data whose owner
	// changed relative to the previous assignment (0 when no previous
	// assignment is given).
	Migration float64
	// PartitionTime is how long the partitioner ran.
	PartitionTime time.Duration
	// Overhead is the fragmentation the partitioner induced: units emitted
	// per hierarchy box.
	Overhead float64
}

// EvalQuality computes the full PAC metric for an assignment. prev and
// prevH may be nil when there is no previous partitioning (migration is 0).
// Callers evaluating several candidates, or holding the previous cycle's
// plan, should use BuildCommPlan + EvalQualityPlan directly to avoid
// re-indexing.
func EvalQuality(h *samr.Hierarchy, a *Assignment, prevH *samr.Hierarchy, prev *Assignment, elapsed time.Duration) Quality {
	plan := BuildCommPlan(h, a)
	var prevPlan *CommPlan
	if prev != nil && prevH != nil {
		prevPlan = BuildCommPlan(prevH, prev)
	}
	return EvalQualityPlan(plan, prevPlan, a.Work(), elapsed)
}

// EvalQualityPlan assembles the PAC metric — for EvalQuality and core.Run
// alike — from an already-built plan and its assignment's per-processor
// work (Assignment.WorkInto), measuring migration against the previous
// cycle's plan (nil for none). Nothing is searched beyond the migration diff.
func EvalQualityPlan(plan *CommPlan, prevPlan *CommPlan, work []float64, elapsed time.Duration) Quality {
	q := Quality{
		CommVolume:    plan.Stats.Volume,
		CommMessages:  plan.Stats.Messages,
		Imbalance:     ImbalanceOf(work),
		PartitionTime: elapsed,
	}
	if prevPlan != nil {
		q.Migration = plan.MigrationFrom(prevPlan)
	}
	boxes := 0
	for _, lb := range plan.H.Levels {
		boxes += len(lb)
	}
	if boxes > 0 {
		q.Overhead = float64(len(plan.A.Units)) / float64(boxes)
	}
	return q
}

// CommStats aggregates an assignment's communication requirement.
type CommStats struct {
	// Volume is the per-coarse-step ghost-exchange volume in cell faces:
	// faces joining cells on different processors, weighted by Ratio^level
	// (a level-l boundary is exchanged on every one of its Ratio^l MIT
	// sub-steps), plus interLevelWeight times the weighted volume of fine
	// cells whose parent coarse cell lives on a different processor.
	Volume float64
	// Messages counts message events per coarse step: distinct unit pairs
	// that are face-adjacent (or in a fine/coarse parent relation) and
	// owned by different processors, weighted by the same per-level
	// exchange frequency.
	Messages float64
	// PerProcVolume[p] is processor p's share of Volume (each face or
	// transfer touches both endpoint processors).
	PerProcVolume []float64
	// PerProcMessages[p] is processor p's share of Messages.
	PerProcMessages []float64
}
