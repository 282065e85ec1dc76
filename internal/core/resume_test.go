package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
)

// crashingStrategy wraps a strategy with a chaos fault point: the run is
// killed (strategy error) at a deterministic regrid interval, emulating a
// process crash mid-replay without killing the test process.
type crashingStrategy struct {
	inner Strategy
	fp    *chaos.FaultPoint
}

func (c crashingStrategy) Name() string { return c.inner.Name() }
func (c crashingStrategy) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	if err := c.fp.Check(); err != nil {
		return nil, "", err
	}
	return c.inner.Assign(ctx)
}

// CheckpointState forwards to the wrapped strategy so the crash rehearsal
// checkpoints exactly what the real strategy would.
func (c crashingStrategy) CheckpointState() ([]byte, error) {
	if cs, ok := c.inner.(CheckpointableStrategy); ok {
		return cs.CheckpointState()
	}
	return nil, nil
}

func (c crashingStrategy) RestoreState(data []byte) error {
	if cs, ok := c.inner.(CheckpointableStrategy); ok {
		return cs.RestoreState(data)
	}
	return nil
}

// records returns the valid records of the newest checkpoint log in dir.
func records(t *testing.T, dir string) []checkpoint.Record {
	t.Helper()
	recs, err := (&checkpoint.Store{Dir: dir}).Records()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// newestLog returns the path of the newest log in dir; log names sort in
// the order they were created.
func newestLog(t *testing.T, dir string) string {
	t.Helper()
	logs := logNames(t, dir)
	if len(logs) == 0 {
		t.Fatalf("no checkpoint log in %s", dir)
	}
	return filepath.Join(dir, logs[len(logs)-1])
}

// logNames lists the checkpoint logs in dir, oldest first.
func logNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "log-") {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	return names
}

// sameResult asserts two run results are identical, field by field —
// resumed runs must be indistinguishable from uninterrupted ones.
func sameResult(t *testing.T, got, want *RunResult) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		if got.TotalTime != want.TotalTime {
			t.Errorf("TotalTime %v != %v", got.TotalTime, want.TotalTime)
		}
		if got.ComputeTime != want.ComputeTime || got.CommTime != want.CommTime {
			t.Errorf("Compute/Comm (%v, %v) != (%v, %v)",
				got.ComputeTime, got.CommTime, want.ComputeTime, want.CommTime)
		}
		if got.PartitionTime != want.PartitionTime || got.MigrationTime != want.MigrationTime {
			t.Errorf("Partition/Migration (%v, %v) != (%v, %v)",
				got.PartitionTime, got.MigrationTime, want.PartitionTime, want.MigrationTime)
		}
		if got.Steps != want.Steps || got.Switches != want.Switches {
			t.Errorf("Steps/Switches (%d, %d) != (%d, %d)",
				got.Steps, got.Switches, want.Steps, want.Switches)
		}
		if len(got.Snapshots) != len(want.Snapshots) {
			t.Errorf("snapshot counts %d != %d", len(got.Snapshots), len(want.Snapshots))
		}
		t.Fatalf("run results differ")
	}
}

func TestRunCheckpointResumeMatchesUninterrupted(t *testing.T) {
	tr := testTrace(t)
	mk := func() *cluster.Cluster { return cluster.Homogeneous(8, 1e5, 512, 100) }

	base, err := Run(tr, Adaptive{ImbalanceGuard: 20}, RunConfig{Machine: mk(), NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	crashAt := len(tr.Snapshots) / 2
	if crashAt < 2 {
		t.Fatalf("trace too short for a mid-run crash: %d snapshots", len(tr.Snapshots))
	}
	_, err = Run(tr, crashingStrategy{
		inner: Adaptive{ImbalanceGuard: 20},
		fp:    &chaos.FaultPoint{FailAt: crashAt + 1},
	}, RunConfig{Machine: mk(), NProcs: 8, CheckpointDir: dir})
	if !errors.Is(err, chaos.ErrInjectedCrash) {
		t.Fatalf("crash run: err = %v, want injected crash", err)
	}

	if len(records(t, dir)) == 0 {
		t.Fatal("no checkpoints written before the crash")
	}

	resumed, err := Run(tr, Adaptive{ImbalanceGuard: 20}, RunConfig{
		Machine: mk(), NProcs: 8, CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, resumed, base)
}

func TestRunResumeSkipsCorruptedCheckpoint(t *testing.T) {
	tr := testTrace(t)
	mk := func() *cluster.Cluster { return cluster.Homogeneous(4, 1e5, 512, 100) }

	base, err := Run(tr, Static{P: partition.GMISPSP}, RunConfig{Machine: mk(), NProcs: 4})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	crashAt := len(tr.Snapshots) - 2
	_, err = Run(tr, crashingStrategy{
		inner: Static{P: partition.GMISPSP},
		fp:    &chaos.FaultPoint{FailAt: crashAt + 1},
	}, RunConfig{Machine: mk(), NProcs: 4, CheckpointDir: dir})
	if !errors.Is(err, chaos.ErrInjectedCrash) {
		t.Fatalf("crash run: err = %v", err)
	}

	// Corrupt the newest checkpoint record (a torn append / disk damage):
	// resume must fall back to the previous valid one and still reproduce
	// the uninterrupted result.
	if len(records(t, dir)) < 2 {
		t.Fatalf("need at least 2 checkpoints, have %d", len(records(t, dir)))
	}
	path := newestLog(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Run(tr, Static{P: partition.GMISPSP}, RunConfig{
		Machine: mk(), NProcs: 4, CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, resumed, base)
}

func TestRunResumeWithEmptyDirStartsFresh(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(4, 1e5, 512, 100)
	res, err := Run(tr, Static{P: partition.SFC}, RunConfig{
		Machine: machine, NProcs: 4,
		CheckpointDir: filepath.Join(t.TempDir(), "fresh"), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || math.IsInf(res.TotalTime, 1) {
		t.Fatalf("fresh resume produced no run: %+v", res)
	}
}

func TestRunResumeRejectsMismatchedRun(t *testing.T) {
	tr := testTrace(t)
	mk := func() *cluster.Cluster { return cluster.Homogeneous(4, 1e5, 512, 100) }
	dir := t.TempDir()
	_, err := Run(tr, crashingStrategy{
		inner: Static{P: partition.GMISPSP},
		fp:    &chaos.FaultPoint{FailAt: 3},
	}, RunConfig{Machine: mk(), NProcs: 4, CheckpointDir: dir})
	if !errors.Is(err, chaos.ErrInjectedCrash) {
		t.Fatalf("crash run: err = %v", err)
	}
	// A different strategy must not adopt this checkpoint; with nothing
	// else valid in the directory, the run restarts from scratch and
	// completes — matching a from-scratch run of that strategy.
	base, err := Run(tr, Static{P: partition.SFC}, RunConfig{Machine: mk(), NProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, Static{P: partition.SFC}, RunConfig{
		Machine: mk(), NProcs: 4, CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, base)
}

// TestRunResumeRejectsInvalidAssignment: the outgoing assignment of a
// checkpoint comes from disk, and the resumed run builds a communication
// plan from it. One that is not a valid placement on the run's processors
// fails the run instead of panicking in the plan or resuming silently. Each
// case re-saves the folded checkpoint as one CRC-valid record with its
// assignment altered; the unaltered record resumes to the uninterrupted
// result.
func TestRunResumeRejectsInvalidAssignment(t *testing.T) {
	tr := testTrace(t)
	mk := func() *cluster.Cluster { return cluster.Homogeneous(8, 1e5, 512, 100) }
	strat := Static{P: partition.GMISPSP}
	base, err := Run(tr, strat, RunConfig{Machine: mk(), NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	crashed := t.TempDir()
	_, err = Run(tr, crashingStrategy{inner: strat, fp: &chaos.FaultPoint{FailAt: len(tr.Snapshots)/2 + 1}},
		RunConfig{Machine: mk(), NProcs: 8, CheckpointDir: crashed})
	if !errors.Is(err, chaos.ErrInjectedCrash) {
		t.Fatalf("crash run: err = %v", err)
	}
	// resume re-saves the folded checkpoint, altered by alter, as the only
	// record of a fresh directory and resumes the run from it.
	resume := func(t *testing.T, alter func(t *testing.T, a *partition.Assignment)) (*RunResult, error) {
		ck, err := ReadCheckpoint(crashed)
		if err != nil || ck == nil || ck.PrevAssignment == nil {
			t.Fatalf("ReadCheckpoint: %+v, %v", ck, err)
		}
		alter(t, ck.PrevAssignment)
		dir := t.TempDir()
		store := &checkpoint.Store{Dir: dir}
		if _, err := store.Save(ck.Next, appendCheckpoint(nil, ck)); err != nil {
			t.Fatal(err)
		}
		store.Close()
		return Run(tr, strat, RunConfig{Machine: mk(), NProcs: 8, CheckpointDir: dir, Resume: true})
	}

	t.Run("unaltered record", func(t *testing.T) {
		res, err := resume(t, func(*testing.T, *partition.Assignment) {})
		if err != nil {
			t.Fatalf("unaltered record: %v", err)
		}
		sameResult(t, res, base)
	})

	for _, tc := range []struct {
		name  string
		alter func(t *testing.T, a *partition.Assignment)
	}{
		{"owner out of range", func(_ *testing.T, a *partition.Assignment) { a.Owner[len(a.Owner)-1] = 13 }},
		{"one owner short", func(_ *testing.T, a *partition.Assignment) { a.Owner = a.Owner[:len(a.Owner)-1] }},
		{"overlapping units", func(t *testing.T, a *partition.Assignment) {
			for j := 1; j < len(a.Units); j++ {
				if a.Units[j].Level == a.Units[0].Level {
					a.Units[j].Box = a.Units[0].Box
					return
				}
			}
			t.Fatal("no two units share a level")
		}},
		{"other processor count", func(_ *testing.T, a *partition.Assignment) { a.NProcs = 16 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := resume(t, tc.alter)
			if err == nil || !strings.Contains(err.Error(), "checkpoint at regrid") {
				t.Errorf("resumed to %v (err %v), want a checkpoint error", res != nil, err)
			}
		})
	}
}

func TestRunCheckpointEveryKRegrids(t *testing.T) {
	tr := testTrace(t)
	machine := cluster.Homogeneous(4, 1e5, 512, 100)
	dir := t.TempDir()
	if _, err := Run(tr, Static{P: partition.GMISPSP}, RunConfig{
		Machine: machine, NProcs: 4,
		CheckpointDir: dir, CheckpointEvery: 3,
	}); err != nil {
		t.Fatal(err)
	}
	recs := records(t, dir)
	if len(recs) == 0 {
		t.Fatal("no checkpoints written")
	}
	for _, r := range recs {
		if r.Seq%3 != 0 {
			t.Errorf("checkpoint at regrid %d violates CheckpointEvery=3", r.Seq)
		}
	}
}

// noisyLoad is per-node white noise about a per-node base load, a
// deterministic function of node and time: the mean of the samples so far
// predicts it better than the last sample does, so a forecast depends on
// the whole sample history.
type noisyLoad struct{}

func (noisyLoad) Load(i int, t float64) float64 {
	x := math.Float64bits(t) ^ uint64(i+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return 0.08*float64(i) + 0.3*float64(x>>11)/(1<<53)
}

// TestSystemSensitiveStateSurvivesResume: a crashed capacity-strategy run
// resumes to the uninterrupted result. Computed once, the capacity cache
// is the decision state: background load makes capacities time-dependent,
// so a resumed run that re-sampled at resume time would diverge.
// Forecasting, the forecasters' state is: a resumed run that forecast
// from fresh forecasters would diverge.
func TestSystemSensitiveStateSurvivesResume(t *testing.T) {
	tr := testTrace(t)
	for _, tc := range []struct {
		name    string
		cfg     SystemSensitive
		machine func() *cluster.Cluster
	}{
		{"once", SystemSensitive{}, func() *cluster.Cluster { return cluster.LinuxCluster(8, 42) }},
		{"forecast", SystemSensitive{RecalibrateEvery: 1, Forecast: true}, func() *cluster.Cluster {
			c := cluster.LinuxCluster(8, 2002)
			c.Load = noisyLoad{}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			strat := func() *SystemSensitive { s := tc.cfg; return &s }
			base, err := Run(tr, strat(), RunConfig{Machine: tc.machine(), NProcs: 8})
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			_, err = Run(tr, crashingStrategy{
				inner: strat(),
				fp:    &chaos.FaultPoint{FailAt: len(tr.Snapshots)/2 + 1},
			}, RunConfig{Machine: tc.machine(), NProcs: 8, CheckpointDir: dir})
			if !errors.Is(err, chaos.ErrInjectedCrash) {
				t.Fatalf("crash run: err = %v", err)
			}

			resumed, err := Run(tr, strat(), RunConfig{
				Machine: tc.machine(), NProcs: 8, CheckpointDir: dir, Resume: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, resumed, base)
		})
	}
}

// TestSystemSensitiveStateRoundTrip: without Forecast the capacity cache
// is checkpointed as a bare array, and restores.
func TestSystemSensitiveStateRoundTrip(t *testing.T) {
	state, err := (&SystemSensitive{caps: []float64{0.25, 0.75}}).CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if want := `[0.25,0.75]`; string(state) != want {
		t.Errorf("state = %s, want %s", state, want)
	}
	s := &SystemSensitive{}
	if err := s.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if caps := s.Capacities(); !slices.Equal(caps, []float64{0.25, 0.75}) {
		t.Errorf("caps = %v, want [0.25 0.75]", caps)
	}
}
