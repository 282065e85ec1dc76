package partition

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/sfc"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// The suite of patch- and domain-based partitioners named in §4.4 of the
// paper. All share the inverse space-filling curve (ISP) pipeline —
// decompose the hierarchy into units, order the units along a curve, split
// the ordered sequence — and differ in granularity and splitting strategy,
// which is exactly what gives each one its PAC trade-off:
//
//	SFC        fixed medium granularity, greedy split — the baseline.
//	G-MISP     variable granularity (heavy regions subdivide), greedy split.
//	G-MISP+SP  variable granularity + optimal sequence partitioning: best
//	           load balance among the cheap partitioners.
//	pBD-ISP    coarse granularity + p-way binary dissection: fastest, lowest
//	           communication and migration, worst balance.
//	SP-ISP     fine granularity + optimal sequence partitioning: best
//	           balance, highest overheads.
//	ISP        fine granularity, greedy split.

// Pipeline is a partitioner built on the shared pipeline (plan.go): a
// name and the pipelineSpec it runs for a hierarchy and processor count.
// The package-level values are the suite; they are stateless and safe for
// concurrent use.
type Pipeline struct {
	name    string
	spec    func(h *samr.Hierarchy, nprocs int) pipelineSpec
	seconds *telemetry.Histogram // metricPartitionSeconds' series for name
	reused  *telemetry.Counter   // metricCandidatesReused's series for name
}

func newPipeline(name string, spec func(h *samr.Hierarchy, nprocs int) pipelineSpec) *Pipeline {
	return &Pipeline{name, spec, metricPartitionSeconds.With(name), metricCandidatesReused.With(name)}
}

// Name implements Partitioner.
func (p *Pipeline) Name() string { return p.name }

// Partition implements Partitioner.
func (p *Pipeline) Partition(h *samr.Hierarchy, wm samr.WorkModel, nprocs int) (*Assignment, error) {
	return p.PartitionIncremental(h, wm, nprocs, nil)
}

// PartitionIncremental implements IncrementalPartitioner: the candidate
// stage in plan's own slot (a nil plan gets a throwaway one), materialized,
// so a call with the inputs of the slot's last returns its assignment.
func (p *Pipeline) PartitionIncremental(h *samr.Hierarchy, wm samr.WorkModel, nprocs int, plan *PartitionPlan) (*Assignment, error) {
	if plan == nil {
		plan = &PartitionPlan{}
	}
	if err := plan.candidate(&plan.direct, p, h, wm, nprocs); err != nil {
		return nil, err
	}
	return plan.direct.Materialize(), nil
}

// gmispDecomp is the variable-grain decomposition of G-MISP and G-MISP+SP:
// units subdivide until about a quarter of a processor's ideal share, and
// never below a side of 2.
var gmispDecomp = decompSpec{kind: decompVarGrain, factor: 4, minSide: 2}

// blockDecomp is the fixed-side block decomposition at granularityFor's
// side.
func blockDecomp(h *samr.Hierarchy, nprocs, targetUnitsPerProc, minSide, maxSide int) decompSpec {
	return decompSpec{kind: decompBlock, side: granularityFor(h, nprocs, targetUnitsPerProc, minSide, maxSide)}
}

var (
	// SFC is the plain space-filling-curve partitioner.
	SFC = newPipeline("SFC", func(h *samr.Hierarchy, nprocs int) pipelineSpec {
		return pipelineSpec{decomp: blockDecomp(h, nprocs, 10, 2, 20), split: splitGreedy, cost: 1}
	})

	// GMISP is the variable-grain geometric multilevel inverse SFC
	// partitioner.
	GMISP = newPipeline("G-MISP", func(*samr.Hierarchy, int) pipelineSpec {
		return pipelineSpec{decomp: gmispDecomp, split: splitGreedy, cost: 1}
	})

	// GMISPSP is G-MISP with optimal sequence partitioning (G-MISP+SP).
	GMISPSP = newPipeline("G-MISP+SP", func(*samr.Hierarchy, int) pipelineSpec {
		return pipelineSpec{decomp: gmispDecomp, split: splitOptimal, cost: seqSplitCost}
	})

	// PBDISP is the p-way binary dissection inverse SFC partitioner.
	PBDISP = newPipeline("pBD-ISP", func(h *samr.Hierarchy, nprocs int) pipelineSpec {
		return pipelineSpec{decomp: blockDecomp(h, nprocs, 3, 4, 24), split: splitDissection, cost: log2(nprocs)}
	})

	// SPISP is the pure sequence partitioner with inverse SFC at fine
	// granularity.
	SPISP = newPipeline("SP-ISP", func(h *samr.Hierarchy, nprocs int) pipelineSpec {
		return pipelineSpec{decomp: blockDecomp(h, nprocs, 48, 2, 8), split: splitOptimal, cost: seqSplitCost}
	})

	// ISP is the plain fine-granularity inverse SFC partitioner.
	ISP = newPipeline("ISP", func(h *samr.Hierarchy, nprocs int) pipelineSpec {
		return pipelineSpec{decomp: blockDecomp(h, nprocs, 48, 2, 8), split: splitGreedy, cost: 1}
	})
)

// SPISPOnCurve is SP-ISP ordering its units along curve instead of the
// default Hilbert curve: the curve ablation's partitioner.
func SPISPOnCurve(curve sfc.Curve) *Pipeline {
	return &Pipeline{SPISP.name, func(h *samr.Hierarchy, nprocs int) pipelineSpec {
		spec := SPISP.spec(h, nprocs)
		spec.curve = curve
		return spec
	}, SPISP.seconds, SPISP.reused}
}

// ByName returns the partitioner registered under the paper's name, or an
// error listing the known names. This is the partitioner database the
// adaptive meta-partitioner selects from; a lookup allocates nothing.
func ByName(name string) (Partitioner, error) {
	if p, ok := byName[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("partition: unknown partitioner %q (known: SFC, G-MISP, G-MISP+SP, pBD-ISP, SP-ISP, ISP, EqualBlock, Heterogeneous, PatchGreedy)", name)
}

// byName holds the database's entries: partitioners are stateless, so
// every caller can share one.
var byName = map[string]Partitioner{
	"SFC":           SFC,
	"G-MISP":        GMISP,
	"G-MISP+SP":     GMISPSP,
	"pBD-ISP":       PBDISP,
	"SP-ISP":        SPISP,
	"ISP":           ISP,
	"EqualBlock":    EqualBlock,
	"Heterogeneous": Heterogeneous,
	"PatchGreedy":   PatchGreedy{},
}

// All returns the ISP partitioner suite in the order the paper lists it.
func All() []Partitioner {
	return []Partitioner{SFC, GMISP, GMISPSP, PBDISP, SPISP, ISP}
}

// seqSplitCost is the relative cost of optimal sequence partitioning: the
// bottleneck binary search performs ~60 greedy verification sweeps.
const seqSplitCost = 60

// log2 returns log base 2 of n, at least 1, for dissection split cost.
func log2(n int) float64 {
	c := 1.0
	for n > 2 {
		n /= 2
		c++
	}
	return c
}

func checkArgs(h *samr.Hierarchy, nprocs int) error {
	if h == nil || h.Depth() == 0 {
		return fmt.Errorf("partition: nil or empty hierarchy")
	}
	if nprocs < 1 {
		return fmt.Errorf("partition: nprocs %d < 1", nprocs)
	}
	return nil
}

func assemble(units []Unit, owner []int, nprocs int) *Assignment {
	return &Assignment{NProcs: nprocs, Units: units, Owner: owner, SplitCost: 1}
}
