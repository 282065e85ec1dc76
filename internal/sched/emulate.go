package sched

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/engine"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// EmulateFinalSnapshot runs the trace's last hierarchy as a real
// message-passing program on an in-process Message Center, under the
// engine's worker supervision: every barrier wait is bounded by the spec's
// step deadline, and an interval that loses workers is remapped onto the
// survivors (fresh mailboxes per attempt) up to EmulateRetries times
// before the run fails. The failure stays inside this run. It returns the
// successful attempt's report (pragma-node replay -emulate prints it).
func EmulateFinalSnapshot(spec RunSpec) (engine.Report, error) {
	h := spec.Trace.Snapshots[len(spec.Trace.Snapshots)-1].H
	nprocs := spec.NProcs
	if nprocs == 0 {
		nprocs = spec.Machine.NProcs()
	}
	p, err := partition.ByName("G-MISP+SP")
	if err != nil {
		return engine.Report{}, err
	}
	a, err := p.Partition(h, samr.UniformWorkModel{}, nprocs)
	if err != nil {
		return engine.Report{}, err
	}
	center := agents.NewCenter()
	ports := make([]agents.Port, nprocs)
	for i := range ports {
		ports[i] = center
	}
	build := func(attempt int, lost []int) (*engine.Engine, error) {
		if attempt > 0 {
			// The previous attempt reported lost in its own numbering;
			// remap its assignment onto the survivors and shrink the port
			// set to match.
			a, _, err = engine.RemapOntoSurvivors(a, lost)
			if err != nil {
				return nil, err
			}
			ports = ports[:a.NProcs]
		}
		opts := []engine.Option{engine.WithPortSuffix(fmt.Sprintf("a%d", attempt))}
		if spec.EmulateDeadline > 0 {
			opts = append(opts, engine.WithStepDeadline(spec.EmulateDeadline))
		}
		return engine.New(h, a, center, ports, opts...)
	}
	rep, _, err := engine.RunRecovering(spec.EmulateSteps, spec.EmulateRetries, build)
	return rep, err
}
