package pragma

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/partition"
)

// crashAfter wraps a strategy with a chaos fault point so a replay dies at
// a chosen regrid — emulating the process crash of a real run without
// killing the test binary.
type crashAfter struct {
	inner Strategy
	fp    *chaos.FaultPoint
}

func (c crashAfter) Name() string { return c.inner.Name() }
func (c crashAfter) Assign(ctx *core.StepContext) (*partition.Assignment, string, error) {
	if err := c.fp.Check(); err != nil {
		return nil, "", err
	}
	return c.inner.Assign(ctx)
}

func (c crashAfter) CheckpointState() ([]byte, error) {
	if cs, ok := c.inner.(core.CheckpointableStrategy); ok {
		return cs.CheckpointState()
	}
	return nil, nil
}

func (c crashAfter) RestoreState(data []byte) error {
	if cs, ok := c.inner.(core.CheckpointableStrategy); ok {
		return cs.RestoreState(data)
	}
	return nil
}

// TestRuntimeCrashRecovery is the end-to-end crash/restart scenario: a run
// checkpointing through the public options is killed mid-replay, then a
// second Execute with WithResume picks up from the latest checkpoint and
// produces a result identical to a never-interrupted run.
func TestRuntimeCrashRecovery(t *testing.T) {
	trace, err := GenerateRM3D(RM3DSmall())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(strat Strategy) Runtime {
		return Runtime{Trace: trace, Machine: NewCluster(8), Strategy: strat, NProcs: 8}
	}

	base, err := mk(Adaptive()).Execute()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	crashAt := len(trace.Snapshots)/2 + 1
	_, err = mk(crashAfter{inner: Adaptive(), fp: &chaos.FaultPoint{FailAt: crashAt}}).
		Execute(WithCheckpointDir(dir), WithCheckpointEvery(2))
	if !errors.Is(err, chaos.ErrInjectedCrash) {
		t.Fatalf("crash run: err = %v, want injected crash", err)
	}

	resumed, err := mk(Adaptive()).Execute(WithCheckpointDir(dir), WithCheckpointEvery(2), WithResume())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, base) {
		t.Fatalf("resumed run differs from uninterrupted run:\n got %+v\nwant %+v", resumed, base)
	}
}

// TestRuntimeResumeWithoutCheckpointsRunsFresh covers the operator
// convenience path: -resume with an empty directory just runs.
func TestRuntimeResumeWithoutCheckpointsRunsFresh(t *testing.T) {
	trace, err := GenerateRM3D(RM3DSmall())
	if err != nil {
		t.Fatal(err)
	}
	rt := Runtime{Trace: trace, Machine: NewCluster(4), Strategy: Static(partition.SFC), NProcs: 4}
	res, err := rt.Execute(WithCheckpointDir(t.TempDir()), WithResume())
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatalf("fresh resume produced no steps: %+v", res)
	}
}

// TestRuntimeSurvivesNodeLoss drives a mid-run node failure through the
// public Runtime API: the run must stay finite by remapping onto
// survivors.
func TestRuntimeSurvivesNodeLoss(t *testing.T) {
	trace, err := GenerateRM3D(RM3DSmall())
	if err != nil {
		t.Fatal(err)
	}
	machine := NewCluster(8)
	healthy, err := Runtime{Trace: trace, Machine: NewCluster(8), Strategy: Adaptive(), NProcs: 8}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	machine.Fail(3, healthy.TotalTime/3)
	machine.Fail(5, healthy.TotalTime/2)
	res, err := Runtime{Trace: trace, Machine: machine, Strategy: Adaptive(), NProcs: 8}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.TotalTime, 1) || math.IsNaN(res.TotalTime) {
		t.Fatalf("run did not survive node loss: total=%v", res.TotalTime)
	}
	if res.TotalTime < healthy.TotalTime {
		t.Errorf("losing 2 of 8 nodes sped the run up: %v < %v", res.TotalTime, healthy.TotalTime)
	}
}

// TestRuntimeAllNodesDead pins the zero-survivor error path
// through the public API.
func TestRuntimeAllNodesDead(t *testing.T) {
	trace, err := GenerateRM3D(RM3DSmall())
	if err != nil {
		t.Fatal(err)
	}
	machine := NewCluster(2)
	machine.Fail(0, 0)
	machine.Fail(1, 0)
	_, err = Runtime{Trace: trace, Machine: machine, Strategy: Adaptive(), NProcs: 2}.Execute()
	if err == nil {
		t.Fatal("run with zero live nodes succeeded")
	}
}

// TestRuntimeAgentManagedCrashRecovery crashes an agent-managed run built
// through the facade and resumes it with WithResume: the resumed result is
// the uninterrupted run's. A checkpoint written for eight agents does not
// restore into four.
func TestRuntimeAgentManagedCrashRecovery(t *testing.T) {
	trace, err := GenerateRM3D(RM3DSmall())
	if err != nil {
		t.Fatal(err)
	}
	agentManaged := func(nodes int) *AgentManagedStrategy {
		center := NewMessageCenter()
		ports := make([]MessagePort, nodes)
		for i := range ports {
			ports[i] = center
		}
		strat, err := NewAgentManagedOn(center, ports, 25)
		if err != nil {
			t.Fatal(err)
		}
		return strat
	}
	mk := func(strat Strategy) Runtime {
		return Runtime{Trace: trace, Machine: NewCluster(8), Strategy: strat, NProcs: 8}
	}
	base, err := mk(agentManaged(8)).Execute()
	if err != nil {
		t.Fatal(err)
	}
	// Entering these regrids, a resume that starts the agent loop afresh
	// diverges from the uninterrupted run.
	for _, k := range []int{2, 16, 32} {
		dir := t.TempDir()
		_, err = mk(crashAfter{inner: agentManaged(8), fp: &chaos.FaultPoint{FailAt: k + 1}}).Execute(WithCheckpointDir(dir))
		if !errors.Is(err, chaos.ErrInjectedCrash) {
			t.Fatalf("crash run: err = %v, want injected crash", err)
		}
		resumed, err := mk(agentManaged(8)).Execute(WithCheckpointDir(dir), WithResume())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed, base) {
			t.Fatalf("crash entering regrid %d: resumed run differs from uninterrupted run:\n got %+v\nwant %+v", k, resumed, base)
		}
	}

	state, err := agentManaged(8).CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if err := agentManaged(4).RestoreState(state); err == nil {
		t.Fatal("state of eight agents restored into four")
	}
}
