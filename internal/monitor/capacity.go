package monitor

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/cluster"
)

// Reading is one resource observation for a node.
type Reading struct {
	// Time is the simulation time of the observation.
	Time float64
	// CPU is the available CPU fraction in [0, 1] (1 = fully idle).
	CPU float64
	// MemoryMB is the available memory.
	MemoryMB float64
	// BandwidthMBps is the available link bandwidth.
	BandwidthMBps float64
}

// ClusterSensor observes a simulated cluster: it samples the resource
// state of the nodes — the role NWS sensors play in the paper.
type ClusterSensor struct {
	Cluster *cluster.Cluster
}

// Sample returns one reading per node at simulation time t: available
// CPU is what the background load leaves over; memory and bandwidth come
// from the machine description.
// A failed node reads as having no resources at all — the NWS sensor on a
// dead machine reports nothing, and the capacity calculator must starve it
// of work rather than inherit its last healthy reading.
func (s ClusterSensor) Sample(t float64) []Reading {
	out := make([]Reading, len(s.Cluster.Nodes))
	for i, n := range s.Cluster.Nodes {
		if !s.Cluster.Alive(i, t) {
			out[i] = Reading{Time: t}
			continue
		}
		cpu := 1.0
		if s.Cluster.Load != nil {
			cpu = 1 - s.Cluster.Load.Load(i, t)
			if cpu < 0.05 {
				cpu = 0.05
			}
		}
		out[i] = Reading{Time: t, CPU: cpu, MemoryMB: n.MemoryMB, BandwidthMBps: n.BandwidthMBps}
	}
	return out
}

// Weights are the application-dependent weights of the relative-capacity
// formula (§4.6): they "reflect its computational, memory, and
// communication requirements".
type Weights struct {
	CPU, Memory, Bandwidth float64
}

// DefaultWeights suits a computation-dominated SAMR kernel.
func DefaultWeights() Weights { return Weights{CPU: 0.75, Memory: 0.1, Bandwidth: 0.15} }

// Validate checks that the weights are usable.
func (w Weights) Validate() error {
	if w.CPU < 0 || w.Memory < 0 || w.Bandwidth < 0 {
		return fmt.Errorf("monitor: negative weight %+v", w)
	}
	if w.CPU+w.Memory+w.Bandwidth <= 0 {
		return fmt.Errorf("monitor: weights sum to zero")
	}
	return nil
}

// Capacities implements the capacity calculator of Fig. 4: the relative
// capacity of node k is the weighted sum of its normalized available CPU,
// memory and link bandwidth. The result sums to 1. It publishes the
// pragma_monitor_relative_capacity gauges; the predictive variant goes
// through capacities directly so the reactive gauges keep their meaning.
func Capacities(readings []Reading, w Weights) ([]float64, error) {
	caps, err := capacities(readings, w)
	if err != nil {
		return nil, err
	}
	setCapacityGauges(metricRelativeCapacity, caps)
	return caps, nil
}

// capacities is Capacities without the gauge publication.
func capacities(readings []Reading, w Weights) ([]float64, error) {
	if len(readings) == 0 {
		return nil, fmt.Errorf("monitor: no readings")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	var maxCPU, maxMem, maxBW float64
	for _, r := range readings {
		maxCPU = maxF(maxCPU, r.CPU)
		maxMem = maxF(maxMem, r.MemoryMB)
		maxBW = maxF(maxBW, r.BandwidthMBps)
	}
	caps := make([]float64, len(readings))
	var total float64
	for i, r := range readings {
		c := w.CPU*norm(r.CPU, maxCPU) + w.Memory*norm(r.MemoryMB, maxMem) + w.Bandwidth*norm(r.BandwidthMBps, maxBW)
		caps[i] = c
		total += c
	}
	if total <= 0 {
		return nil, fmt.Errorf("monitor: all capacities zero")
	}
	for i := range caps {
		caps[i] /= total
	}
	return caps, nil
}

func norm(v, max float64) float64 {
	if max <= 0 {
		return 0
	}
	return v / max
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PredictiveCapacities runs one meta-forecaster per node over a history of
// CPU availability readings and returns capacities computed from the
// *predicted* next CPU availability — the proactive variant Pragma's
// predictive models enable. history[t][k] is node k's reading at sample t.
func PredictiveCapacities(history [][]Reading, w Weights) ([]float64, error) {
	if len(history) == 0 {
		return nil, fmt.Errorf("monitor: empty history")
	}
	n := len(history[0])
	metas := make([]*Meta, n)
	for k := range metas {
		metas[k] = NewMeta()
	}
	for _, sample := range history {
		if len(sample) != n {
			return nil, fmt.Errorf("monitor: ragged history (%d vs %d nodes)", len(sample), n)
		}
		for k, r := range sample {
			metas[k].Update(r.CPU)
		}
	}
	last := history[len(history)-1]
	predicted := make([]Reading, n)
	for k := range predicted {
		cpu := metas[k].Predict()
		if cpu < 0 {
			cpu = 0
		}
		if cpu > 1 {
			cpu = 1
		}
		predicted[k] = Reading{
			Time:          last[k].Time,
			CPU:           cpu,
			MemoryMB:      last[k].MemoryMB,
			BandwidthMBps: last[k].BandwidthMBps,
		}
	}
	caps, err := capacities(predicted, w)
	if err != nil {
		return nil, err
	}
	setCapacityGauges(metricPredictedCapacity, caps)
	return caps, nil
}
