// Package core implements Pragma's adaptive runtime management: the
// application- and system-sensitive meta-partitioner of §4 and the replay
// runner that executes an application's adaptation trace on a simulated
// machine under a partitioning strategy. It is the layer that ties the
// substrates together: octant characterization feeds the policy base, the
// selected partitioner distributes the grid hierarchy, the capacity
// calculator weights heterogeneous processors, and the cluster simulator
// accumulates execution time.
package core

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/policy"
	"github.com/pragma-grid/pragma/internal/samr"
)

// MetaPartitioner selects "the most appropriate partitioning strategy at
// runtime, based on current application and system state" (§4): the octant
// approach abstracts the application state, the policy knowledge base maps
// the octant to a partitioning technique, and the partitioner database
// supplies the implementation.
type MetaPartitioner struct {
	// Policy is the adaptation policy base; NewMetaPartitioner installs
	// the paper's Table 2.
	Policy *policy.Base
	// Thresholds configure the octant classifier.
	Thresholds octant.Thresholds
	// Window is the dynamics smoothing window in regrid intervals.
	Window int
	// Lookup resolves a policy target name to a partitioner
	// implementation; NewMetaPartitioner installs partition.ByName.
	Lookup func(name string) (partition.Partitioner, error)
}

// NewMetaPartitioner returns a meta-partitioner configured exactly as the
// paper's case study: Table 2 policies, trace-calibrated octant thresholds,
// and the standard partitioner database.
func NewMetaPartitioner() *MetaPartitioner {
	return &MetaPartitioner{
		Policy:     policy.Table2(),
		Thresholds: octant.DefaultThresholds(),
		Window:     3,
		Lookup:     partition.ByName,
	}
}

// SelectForOctant returns the partitioner the policy base recommends for an
// octant.
func (m *MetaPartitioner) SelectForOctant(o octant.Octant) (partition.Partitioner, error) {
	if !o.Valid() {
		return nil, fmt.Errorf("core: invalid octant %v", o)
	}
	act, ok := m.Policy.BestAction("select-partitioner", map[string]interface{}{"octant": octantNames[o]})
	if !ok {
		return nil, fmt.Errorf("core: no partitioner policy for octant %v", o)
	}
	p, err := m.Lookup(act.Target)
	if err == nil {
		metricPartitionerSelected.With(p.Name(), o.String()).Inc()
	}
	return p, err
}

// octantNames holds each octant's name as a policy attribute value, boxed
// once: boxing it per query would allocate at every regrid.
var octantNames = func() (names [octant.VIII + 1]interface{}) {
	for o := octant.I; o <= octant.VIII; o++ {
		names[o] = o.String()
	}
	return names
}()

// SelectAt characterizes the trace at snapshot idx and returns the selected
// partitioner together with the octant classification — one row of the
// paper's Table 3.
func (m *MetaPartitioner) SelectAt(tr *samr.Trace, idx int) (partition.Partitioner, octant.Octant, error) {
	state, err := octant.StateAt(tr, idx, m.Window)
	if err != nil {
		return nil, 0, err
	}
	o := octant.Classify(state, m.Thresholds)
	p, err := m.SelectForOctant(o)
	if err != nil {
		return nil, o, err
	}
	return p, o, nil
}
