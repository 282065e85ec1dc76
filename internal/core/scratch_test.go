package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
)

// Run takes its partition plan, communication plans, work vector and
// checkpoint record from a process-wide pool and gives them back when it
// returns. These tests hold that recycling invisible: whatever shape of
// run used the scratch before, and however many runs share the pool at
// once, every result is the one fresh memory gives.

// scratchCase is one replay, the same every time it is run.
type scratchCase struct {
	name   string
	tr     *samr.Trace
	wm     func(int) samr.WorkModel
	nprocs int
}

func (c scratchCase) config() RunConfig {
	return RunConfig{Machine: cluster.SP2(c.nprocs), NProcs: c.nprocs, WorkModel: c.wm}
}

func (c scratchCase) run(t testing.TB) *RunResult {
	t.Helper()
	res, err := Run(c.tr, Adaptive{ImbalanceGuard: 20}, c.config())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res
}

// goldenScratchCase is the golden rm3d-small/adaptive/64 replay.
func goldenScratchCase(t testing.TB) scratchCase {
	return scratchCase{name: "rm3d-small/adaptive/64", tr: testTrace(t), wm: rm3d.SmallConfig().WorkModel, nprocs: 64}
}

// scenarioScratchCase is a scenario trace on 8 processors: another
// domain, another hierarchy depth, another work model, another machine.
// Its work models are built once and shared by every run of the case, as
// the fleet's materializer shares a scenario's.
func scenarioScratchCase(t testing.TB) scratchCase {
	spec := scenario.Default()
	spec.Seed = 7
	spec.Name = "scratch-" + octant.VI.String()
	spec.Phases = []scenario.Phase{{Snapshots: 10, Drivers: []scenario.Driver{scenario.ForOctant(octant.VI)}, Expect: octant.VI}}
	tr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	wms := make([]samr.WorkModel, len(tr.Snapshots))
	for i := range wms {
		wms[i] = spec.WorkModel(i)
	}
	wm := func(idx int) samr.WorkModel { return wms[idx] }
	return scratchCase{name: "scenario/" + octant.VI.String() + "/8", tr: tr, wm: wm, nprocs: 8}
}

// TestRunScratchRecycledAcrossRuns: in one process, a run of another
// shape first fills the pool; the golden case then run on its scratch is
// still the golden record, and an interrupt/resume whose two attempts are
// separated by another run still ends with the uninterrupted result.
func TestRunScratchRecycledAcrossRuns(t *testing.T) {
	other, golden := scenarioScratchCase(t), goldenScratchCase(t)
	other.run(t)
	want := goldenResult(t, golden.name)
	sameResult(t, golden.run(t), want)

	dir := t.TempDir()
	stop := make(chan struct{})
	cfg := golden.config()
	cfg.CheckpointDir, cfg.Interrupt = dir, stop
	if _, err := Run(golden.tr, &interruptAt{Strategy: Adaptive{ImbalanceGuard: 20}, at: 17, stop: stop}, cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted attempt returned %v, want ErrInterrupted", err)
	}
	other.run(t)
	cfg = golden.config()
	cfg.CheckpointDir, cfg.Resume = dir, true
	res, err := Run(golden.tr, Adaptive{ImbalanceGuard: 20}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, want)
}

// TestRunScratchRecycledConcurrently: four goroutines alternate two
// traces through the shared pool, and every result equals its sequential
// reference. Under -race this also checks that no two runs ever hold the
// same scratch, and that runs only read the work models they share.
func TestRunScratchRecycledConcurrently(t *testing.T) {
	cases := []scratchCase{goldenScratchCase(t), scenarioScratchCase(t)}
	refs := make([]*RunResult, len(cases))
	for i, c := range cases {
		refs[i] = c.run(t)
	}
	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(cases))
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds * len(cases) {
				k := (g + i) % len(cases)
				res, err := Run(cases[k].tr, Adaptive{ImbalanceGuard: 20}, cases[k].config())
				switch {
				case err != nil:
					errs <- fmt.Errorf("goroutine %d, %s: %v", g, cases[k].name, err)
				case !reflect.DeepEqual(res, refs[k]):
					errs <- fmt.Errorf("goroutine %d, %s: result differs from its sequential reference", g, cases[k].name)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
