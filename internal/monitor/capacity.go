package monitor

import (
	"encoding/binary"
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

// Forecasts is the predictive capacity calculator, Pragma's proactive
// variant of Capacities: one meta-forecaster per machine node, each
// updated once per sample. Its state is bounded by the pool's 32-sample
// window however long it runs.
type Forecasts struct {
	// Nodes holds node k's forecaster at k: the whole state, which
	// MarshalBinary writes.
	Nodes []Meta
	// latest is the sample Observe last fed.
	latest []Reading
}

// NewForecasts builds forecasters for a machine of n nodes.
func NewForecasts(n int) *Forecasts { return &Forecasts{Nodes: make([]Meta, n)} }

// Observe feeds one sample of the whole machine, reading k to node k's
// forecaster. It keeps sample until the next call.
func (f *Forecasts) Observe(sample []Reading) error {
	if len(sample) != len(f.Nodes) {
		return fmt.Errorf("monitor: sample of %d nodes for %d forecasters", len(sample), len(f.Nodes))
	}
	for k, r := range sample {
		f.Nodes[k].Update(r.CPU)
	}
	f.latest = sample
	return nil
}

// Capacities returns the relative capacities of the given machine nodes,
// in their order, computed from each one's *predicted* next CPU
// availability, clamped to [0, 1], and the memory and bandwidth of the
// sample Observe last fed. It publishes the
// pragma_monitor_predicted_capacity gauges.
func (f *Forecasts) Capacities(nodes []int, w Weights) ([]float64, error) {
	if f.latest == nil {
		return nil, fmt.Errorf("monitor: no sample observed")
	}
	predicted := make([]Reading, len(nodes))
	for p, k := range nodes {
		cpu := f.Nodes[k].Predict()
		if cpu < 0 {
			cpu = 0
		}
		if cpu > 1 {
			cpu = 1
		}
		last := f.latest[k]
		predicted[p] = Reading{Time: last.Time, CPU: cpu, MemoryMB: last.MemoryMB, BandwidthMBps: last.BandwidthMBps}
	}
	caps, err := capacities(predicted, w)
	if err != nil {
		return nil, err
	}
	setCapacityGauges(metricPredictedCapacity, caps)
	return caps, nil
}

// MarshalBinary implements encoding.BinaryMarshaler: every node's Meta in
// order, little-endian, a fixed size per node.
func (f *Forecasts) MarshalBinary() ([]byte, error) {
	return binary.Append(nil, binary.LittleEndian, f.Nodes)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The latest sample
// is not state: Capacities needs an Observe first.
func (f *Forecasts) UnmarshalBinary(data []byte) error {
	size := binary.Size(Meta{})
	if len(data)%size != 0 {
		return fmt.Errorf("monitor: %d bytes of forecaster state is not a whole number of %d-byte nodes", len(data), size)
	}
	nodes := make([]Meta, len(data)/size)
	if _, err := binary.Decode(data, binary.LittleEndian, nodes); err != nil {
		return err
	}
	for k, m := range nodes {
		if m.N < 0 {
			return fmt.Errorf("monitor: node %d's forecaster has %d observations", k, m.N)
		}
	}
	f.Nodes, f.latest = nodes, nil
	return nil
}
