// Package cluster simulates the distributed execution environments of the
// paper's evaluation — the 64-processor NPACI IBM SP2 "Blue Horizon" run of
// Table 4 and the 32-node fast-Ethernet Linux cluster of Table 5 — so the
// partitioning experiments can be replayed without the original hardware.
//
// The simulator uses a BSP (bulk-synchronous) cost model: each coarse
// time-step costs every processor its computation (assigned work divided by
// effective speed under background load) plus its communication (ghost
// volume over bandwidth plus per-message latency), and the step completes
// when the slowest processor finishes. Repartitioning adds partitioning
// time and data-migration cost. Relative runtimes between partitioning
// strategies — who wins and by roughly what factor — are what the model
// preserves; absolute seconds are not calibrated to the original machines.
package cluster

import (
	"fmt"
	"math"
)

// Node is one processing element of the simulated machine.
type Node struct {
	// Speed is the node's computational rate in work units per second when
	// idle.
	Speed float64
	// MemoryMB is the node's physical memory, used by the capacity
	// calculator.
	MemoryMB float64
	// BandwidthMBps is the node's link bandwidth to the interconnect.
	BandwidthMBps float64
}

// Interconnect models the shared network.
type Interconnect struct {
	// LatencySec is the per-message latency.
	LatencySec float64
	// BisectionMBps bounds total migration traffic during redistribution.
	BisectionMBps float64
}

// Cluster is a simulated machine: nodes, an interconnect, and a background
// load generator.
type Cluster struct {
	Nodes []Node
	Net   Interconnect
	// Load reports the background CPU load of a node at a given time
	// (0 = idle, 0.9 = 90% of the CPU stolen). Nil means no load.
	Load LoadGenerator
	// Failures holds scheduled fail-stop events (see failure.go).
	Failures []Failure
}

// Homogeneous builds an n-node cluster of identical machines, the shape of
// the Blue Horizon partition used for Table 4.
func Homogeneous(n int, speed, memMB, bwMBps float64) *Cluster {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Speed: speed, MemoryMB: memMB, BandwidthMBps: bwMBps}
	}
	return &Cluster{
		Nodes: nodes,
		Net:   Interconnect{LatencySec: 25e-6, BisectionMBps: bwMBps * float64(n) / 4},
	}
}

// SP2 builds the Table 4 machine: an n-processor partition modeled on the
// NPACI IBM SP2 "Blue Horizon". The latency is the effective per-neighbor
// synchronization cost of one ghost exchange, including MPI software
// overhead and packing (see EXPERIMENTS.md for the calibration).
func SP2(n int) *Cluster {
	c := Homogeneous(n, 1e5, 1024, 120)
	c.Net.LatencySec = 500e-6
	return c
}

// LinuxCluster builds the Table 5 machine: n workstation nodes on 100 Mbit
// fast Ethernet with a synthetic background load.
func LinuxCluster(n int, seed int64) *Cluster {
	c := Homogeneous(n, 2e5, 512, 12.5)
	c.Net.LatencySec = 120e-6
	c.Net.BisectionMBps = 12.5 * 4 // shared switch backplane
	c.Load = NewSyntheticLoad(n, seed)
	return c
}

// NProcs returns the node count.
func (c *Cluster) NProcs() int { return len(c.Nodes) }

// Validate checks the machine description.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	for i, n := range c.Nodes {
		if n.Speed <= 0 {
			return fmt.Errorf("cluster: node %d speed %g <= 0", i, n.Speed)
		}
		if n.BandwidthMBps <= 0 {
			return fmt.Errorf("cluster: node %d bandwidth %g <= 0", i, n.BandwidthMBps)
		}
	}
	if c.Net.LatencySec < 0 || c.Net.BisectionMBps <= 0 {
		return fmt.Errorf("cluster: bad interconnect %+v", c.Net)
	}
	return nil
}

// EffectiveSpeed returns node i's computation rate at time t after the
// background load takes its share.
func (c *Cluster) EffectiveSpeed(i int, t float64) float64 {
	if !c.Alive(i, t) {
		return 0
	}
	s := c.Nodes[i].Speed
	if c.Load != nil {
		l := c.Load.Load(i, t)
		if l < 0 {
			l = 0
		}
		if l > 0.95 {
			l = 0.95
		}
		s *= 1 - l
	}
	return s
}

// StepCost is the cost breakdown of one coarse time-step.
type StepCost struct {
	// Compute is the slowest processor's computation time.
	Compute float64
	// Comm is the slowest processor's communication time.
	Comm float64
	// Total is the BSP step time max_p(compute_p + comm_p).
	Total float64
}

// CostModel translates grid work and communication into seconds.
type CostModel struct {
	// SecondsPerWork converts one unit of computational weight into seconds
	// on a unit-speed processor (node speeds divide it out).
	SecondsPerWork float64
	// BytesPerFace is the ghost-exchange payload per cell face.
	BytesPerFace float64
	// BytesPerCell is the migration payload per grid cell.
	BytesPerCell float64
}

// DefaultCostModel matches a double-precision, ~10-variable SAMR kernel:
// 5 solution components of 8 bytes per face, 80 bytes of state per cell.
func DefaultCostModel() CostModel {
	return CostModel{SecondsPerWork: 1, BytesPerFace: 40, BytesPerCell: 80}
}

// Step computes the BSP cost of one coarse step at time t for a placement
// described by per-processor work, communication volume (faces) and message
// count.
func (c *Cluster) Step(work, commVolume, commMessages []float64, t float64, cost CostModel) StepCost {
	var sc StepCost
	for p := range c.Nodes {
		comp := 0.0
		if p < len(work) && work[p] > 0 {
			speed := c.EffectiveSpeed(p, t)
			if speed <= 0 {
				// Work assigned to a dead node never completes; surface an
				// effectively infinite step so the failure is impossible
				// to miss in results.
				comp = math.Inf(1)
			} else {
				comp = work[p] * cost.SecondsPerWork / speed
			}
		}
		comm := 0.0
		if p < len(commVolume) {
			bytes := commVolume[p] * cost.BytesPerFace
			comm = bytes / (c.Nodes[p].BandwidthMBps * 1e6)
		}
		if p < len(commMessages) {
			comm += commMessages[p] * c.Net.LatencySec
		}
		if comp > sc.Compute {
			sc.Compute = comp
		}
		if comm > sc.Comm {
			sc.Comm = comm
		}
		if comp+comm > sc.Total {
			sc.Total = comp + comm
		}
	}
	return sc
}

// MigrationTime returns the redistribution cost of moving the given number
// of grid cells across the interconnect bisection.
func (c *Cluster) MigrationTime(cells float64, cost CostModel) float64 {
	if cells <= 0 {
		return 0
	}
	return cells * cost.BytesPerCell / (c.Net.BisectionMBps * 1e6)
}
