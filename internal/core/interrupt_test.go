package core

import (
	"errors"
	"os"
	"sync"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
)

// gatedStrategy blocks inside Assign at one regrid index until released,
// so tests can interrupt a run while it is provably mid-flight.
type gatedStrategy struct {
	Strategy
	at      int
	reached chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedStrategy) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	if ctx.Index == g.at {
		g.once.Do(func() { close(g.reached) })
		<-g.release
	}
	return g.Strategy.Assign(ctx)
}

// TestRunInterruptCheckpointsAndResumes drives the graceful-drain path:
// an interrupt lands while interval 3 executes, the run checkpoints at the
// regrid boundary (CheckpointEvery is set far beyond the trace so only the
// drain-save writes), fails with ErrInterrupted, and a resumed run
// finishes with a result identical to an uninterrupted one.
func TestRunInterruptCheckpointsAndResumes(t *testing.T) {
	tr := testTrace(t)
	p, err := partition.ByName("G-MISP+SP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Machine: cluster.SP2(8), NProcs: 8}
	ref, err := Run(tr, Static{P: p}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupt := make(chan struct{})
	g := &gatedStrategy{
		Strategy: Static{P: p},
		at:       3,
		reached:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	type out struct {
		res *RunResult
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := Run(tr, g, RunConfig{
			Machine: cluster.SP2(8), NProcs: 8,
			CheckpointDir: dir, CheckpointEvery: 10_000,
			Interrupt: interrupt,
		})
		ch <- out{res, err}
	}()
	<-g.reached
	close(interrupt)
	close(g.release)
	o := <-ch
	if !errors.Is(o.err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", o.err)
	}
	if o.res != nil {
		t.Fatalf("interrupted run returned a result: %+v", o.res)
	}

	recs := records(t, dir)
	if len(recs) != 1 {
		t.Fatalf("drain-save wrote %d checkpoints, want exactly 1", len(recs))
	}
	if recs[0].Seq != 4 {
		t.Fatalf("drain checkpoint has NextIndex %d, want 4 (interrupt landed during interval 3)", recs[0].Seq)
	}

	res, err := Run(tr, Static{P: p}, RunConfig{
		Machine: cluster.SP2(8), NProcs: 8,
		CheckpointDir: dir, CheckpointEvery: 10_000,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, ref)
}

// removeDirAt deletes the checkpoint directory and closes stop when the
// run enters regrid at: the log this attempt already writes stays open,
// but its directory can no longer be synced.
type removeDirAt struct {
	Strategy
	at   int
	dir  string
	stop chan struct{}
}

func (s *removeDirAt) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	if ctx.Index == s.at {
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, "", err
		}
		close(s.stop)
	}
	return s.Strategy.Assign(ctx)
}

// TestRunInterruptReportsFailedSync: an interrupted run is reported
// interrupted only once its records are durable. When the sync at the
// interrupt fails, Run returns that error instead of ErrInterrupted, so
// no caller treats the run as resumable from records it cannot vouch for.
func TestRunInterruptReportsFailedSync(t *testing.T) {
	tr := testTrace(t)
	p, err := partition.ByName("SFC")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := &removeDirAt{Strategy: Static{P: p}, at: 1, dir: dir, stop: make(chan struct{})}
	_, err = Run(tr, s, RunConfig{
		Machine: cluster.SP2(4), NProcs: 4,
		CheckpointDir: dir, CheckpointEvery: 1, Interrupt: s.stop,
	})
	if err == nil || errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupt whose sync failed returned %v, want the sync's error", err)
	}
}

// TestRunInterruptBeforeFirstInterval: an interrupt that fires before any
// interval completed has nothing to persist — the run fails resumably-
// from-scratch with no checkpoint file.
func TestRunInterruptBeforeFirstInterval(t *testing.T) {
	tr := testTrace(t)
	p, err := partition.ByName("SFC")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	interrupt := make(chan struct{})
	close(interrupt)
	_, err = Run(tr, Static{P: p}, RunConfig{
		Machine: cluster.SP2(4), NProcs: 4,
		CheckpointDir: dir, Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	if recs := records(t, dir); len(recs) != 0 {
		t.Fatalf("interrupt before the first interval wrote %d checkpoints, want none", len(recs))
	}
	// A "resume" over the empty store must simply run to completion.
	res, err := Run(tr, Static{P: p}, RunConfig{
		Machine: cluster.SP2(4), NProcs: 4,
		CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("resumed-from-scratch run did no work")
	}
}
