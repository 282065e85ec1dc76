package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
)

// A run decides ahead when it may (decide.go). These tests hold deciding
// ahead to deciding in order bit for bit, and hold the deciding goroutine
// to the run's lifetime.

// aheadTrace is one trace the equivalence test replays, with its work
// models built once.
type aheadTrace struct {
	name string
	tr   *samr.Trace
	wm   func(int) samr.WorkModel
}

// aheadTraces are the small trace, the paper trace and every fifth
// scenario of a 20-scenario corpus.
func aheadTraces(t *testing.T) []aheadTrace {
	traces := []aheadTrace{
		{"rm3d-small", testTrace(t), rm3d.SmallConfig().WorkModel},
		{"rm3d-paper", paperTrace(t), rm3d.DefaultConfig().WorkModel},
	}
	for i, spec := range scenario.Corpus(1, 20) {
		if i%5 != 0 {
			continue
		}
		tr, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		wms := make([]samr.WorkModel, len(tr.Snapshots))
		for k := range wms {
			wms[k] = spec.WorkModel(k)
		}
		traces = append(traces, aheadTrace{fmt.Sprintf("corpus-%d", i), tr, func(k int) samr.WorkModel { return wms[k] }})
	}
	return traces
}

// inOrder returns cfg deciding in order.
func inOrder(cfg RunConfig) RunConfig {
	cfg.DecideInOrder = true
	return cfg
}

// TestDecideAheadMatchesInline: every strategy a program builds, on an
// SP2 and on a loaded LinuxCluster, replays every trace to the same
// RunResult deciding ahead as deciding in order; and interrupted at every
// boundary, both modes stop at that boundary, write the same records and
// resume to the uninterrupted result.
func TestDecideAheadMatchesInline(t *testing.T) {
	traces := aheadTraces(t)
	machines := []struct {
		name string
		make func(n int) *cluster.Cluster
	}{
		{"sp2", cluster.SP2},
		{"linux-2002", func(n int) *cluster.Cluster { return cluster.LinuxCluster(n, 2002) }},
	}
	for _, c := range resumeSearchCases(t) {
		if strings.HasSuffix(c.name, "/node-1-fails") {
			continue // the same strategies; these machines replace theirs
		}
		for _, m := range machines {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				for _, tc := range traces {
					cfg := RunConfig{Machine: m.make(c.nprocs), NProcs: c.nprocs, WorkModel: tc.wm}
					want, err := Run(tc.tr, c.strat(), inOrder(cfg))
					if err != nil {
						t.Fatalf("%s in order: %v", tc.name, err)
					}
					got, err := Run(tc.tr, c.strat(), cfg)
					if err != nil {
						t.Fatalf("%s ahead: %v", tc.name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: deciding ahead differs from deciding in order", tc.name)
					}
				}
			})
		}
	}
	for _, m := range machines {
		t.Run("interrupt-every-boundary/"+m.name, func(t *testing.T) {
			t.Parallel()
			tr := testTrace(t)
			cfg := RunConfig{Machine: m.make(8), NProcs: 8, WorkModel: rm3d.SmallConfig().WorkModel, CheckpointEvery: 1}
			want, err := Run(tr, Adaptive{ImbalanceGuard: 20}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := range len(tr.Snapshots) {
				var recs [2][]byte
				for mode, c := range []RunConfig{inOrder(cfg), cfg} {
					c.CheckpointDir = t.TempDir()
					recs[mode] = interruptAndResume(t, tr, c, k, want)
				}
				if string(recs[0]) != string(recs[1]) {
					t.Fatalf("boundary %d: deciding ahead wrote other records than deciding in order", k)
				}
			}
		})
	}
}

// interruptAndResume interrupts a run of tr under cfg at boundary k (an
// interrupt closed before the run at 0, else closed by the strategy
// deciding regrid k-1), checks that it stops there, resumes it, checks
// the result is want and returns the interrupted attempt's log.
func interruptAndResume(t *testing.T, tr *samr.Trace, cfg RunConfig, k int, want *RunResult) []byte {
	t.Helper()
	stop := make(chan struct{})
	var strat Strategy = &interruptAt{Strategy: Adaptive{ImbalanceGuard: 20}, at: k - 1, stop: stop}
	if k == 0 {
		close(stop)
		strat = Adaptive{ImbalanceGuard: 20}
	}
	attempt := cfg
	attempt.Interrupt = stop
	_, err := Run(tr, strat, attempt)
	var ie *InterruptedError
	if !errors.As(err, &ie) || ie.Next != k {
		t.Fatalf("boundary %d (in order: %v): attempt returned %v, want an interrupt there", k, cfg.DecideInOrder, err)
	}
	var log []byte
	if logs := logNames(t, cfg.CheckpointDir); len(logs) > 0 {
		if log, err = os.ReadFile(filepath.Join(cfg.CheckpointDir, logs[0])); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Resume = true
	res, err := Run(tr, Adaptive{ImbalanceGuard: 20}, cfg)
	if err != nil {
		t.Fatalf("boundary %d: resume: %v", k, err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("boundary %d (in order: %v): resumed result differs from the uninterrupted one", k, cfg.DecideInOrder)
	}
	return log
}

// aheadProbe decides as its Strategy does and notes whether Run decided
// ahead.
type aheadProbe struct {
	Strategy
	mu    sync.Mutex
	ahead bool
}

func (p *aheadProbe) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	p.mu.Lock()
	p.ahead = p.ahead || ctx.progress != nil
	p.mu.Unlock()
	return p.Strategy.Assign(ctx)
}

func (p *aheadProbe) decidedAhead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ahead
}

// stateProbe is an aheadProbe whose state Run checkpoints.
type stateProbe struct{ *aheadProbe }

func (stateProbe) CheckpointState() ([]byte, error) { return nil, nil }
func (stateProbe) RestoreState([]byte) error        { return nil }

// degradedProbe is an aheadProbe that counts degraded regrids.
type degradedProbe struct{ *aheadProbe }

func (degradedProbe) DegradedCount() int { return 0 }

// TestRunDecidesAheadOnlyWhenItMay: a run decides ahead unless its
// machine has a failure schedule, Run reads its strategy's state between
// decisions, one processor runs Go code, or its caller asks it not to.
func TestRunDecidesAheadOnlyWhenItMay(t *testing.T) {
	tr := testTrace(t)
	failing := cluster.SP2(4)
	failing.Fail(3, 1e9)
	cases := []struct {
		name     string
		strat    func(*aheadProbe) Strategy
		cfg      RunConfig
		maxprocs int
		ahead    bool
	}{
		{"stateless", func(p *aheadProbe) Strategy { return p }, RunConfig{Machine: cluster.SP2(4)}, 2, true},
		{"caller-asks", func(p *aheadProbe) Strategy { return p }, RunConfig{Machine: cluster.SP2(4), DecideInOrder: true}, 2, false},
		{"failure-schedule", func(p *aheadProbe) Strategy { return p }, RunConfig{Machine: failing}, 2, false},
		{"checkpointable", func(p *aheadProbe) Strategy { return stateProbe{p} }, RunConfig{Machine: cluster.SP2(4)}, 2, false},
		{"degraded-count", func(p *aheadProbe) Strategy { return degradedProbe{p} }, RunConfig{Machine: cluster.SP2(4)}, 2, false},
		{"gomaxprocs-1", func(p *aheadProbe) Strategy { return p }, RunConfig{Machine: cluster.SP2(4)}, 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.maxprocs))
			p := &aheadProbe{Strategy: Static{P: partition.SFC}}
			if _, err := Run(tr, c.strat(p), c.cfg); err != nil {
				t.Fatal(err)
			}
			if p.decidedAhead() != c.ahead {
				t.Fatalf("decided ahead: %v, want %v", p.decidedAhead(), c.ahead)
			}
		})
	}
}

// timeSteered partitions with SFC or G-MISP+SP by the parity of the
// simulated time, after partitioning, so each decision depends on the
// interval before it. It records the times it read.
type timeSteered struct {
	times []float64
}

func (s *timeSteered) Name() string { return "time-steered" }

func (s *timeSteered) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	a, err := ctx.Partition(partition.SFC)
	if err != nil {
		return nil, "", err
	}
	now := ctx.SimTime()
	s.times = append(s.times, now)
	if int(now)%2 == 1 {
		return a, "SFC", nil
	}
	a, err = ctx.Partition(partition.GMISPSP)
	return a, "G-MISP+SP", err
}

// TestSimTimeWaitsForThePreviousInterval: a decision that reads the
// simulated time reads, deciding ahead, the time at which the intervals
// before its regrid end, as deciding in order, and so decides the same.
func TestSimTimeWaitsForThePreviousInterval(t *testing.T) {
	tr := testTrace(t)
	cfg := RunConfig{Machine: cluster.LinuxCluster(8, 2002), NProcs: 8, WorkModel: rm3d.SmallConfig().WorkModel}
	inline, ahead := &timeSteered{}, &timeSteered{}
	want, err := Run(tr, inline, inOrder(cfg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(tr, ahead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
	if !reflect.DeepEqual(ahead.times, inline.times) {
		t.Fatalf("deciding ahead read simulated times %v, in order %v", ahead.times, inline.times)
	}
	if want.Switches == 0 {
		t.Fatal("the simulated time steered no switch")
	}
}

// failingAt decides as its Strategy does, reading the simulated time
// after each decision, and at regrid at returns err or, when boom is set,
// panics with it.
type failingAt struct {
	Strategy
	at   int
	err  error
	boom bool
}

func (s failingAt) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	if ctx.Index == s.at {
		if s.boom {
			panic(s.err)
		}
		return nil, "", s.err
	}
	a, label, err := s.Strategy.Assign(ctx)
	ctx.SimTime()
	return a, label, err
}

// settled waits until at most base goroutines run, and fails with their
// stacks if they do not within a few seconds.
func settled(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			var sb strings.Builder
			pprof.Lookup("goroutine").WriteTo(&sb, 1)
			t.Fatalf("%d goroutines outlive Run, want at most %d:\n%s", runtime.NumGoroutine(), base, sb.String())
		}
	}
}

// TestDecidingGoroutineEndsWithRun: on every way out of Run — completion,
// an Assign error, a panic in Assign (which reaches Run's caller), an
// interrupt, a failed checkpoint save — the deciding goroutine has ended.
func TestDecidingGoroutineEndsWithRun(t *testing.T) {
	tr := testTrace(t)
	errBoom := errors.New("boom")
	adaptive := Adaptive{ImbalanceGuard: 20}
	cfg := RunConfig{Machine: cluster.SP2(8), NProcs: 8, WorkModel: rm3d.SmallConfig().WorkModel}
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		strat func(stop chan struct{}) Strategy
		dir   string
		check func(error) bool
	}{
		{"completion", func(chan struct{}) Strategy { return failingAt{Strategy: adaptive, at: -1} }, "",
			func(err error) bool { return err == nil }},
		{"assign-error", func(chan struct{}) Strategy { return failingAt{Strategy: adaptive, at: 5, err: errBoom} }, "",
			func(err error) bool { return errors.Is(err, errBoom) }},
		{"assign-panic", func(chan struct{}) Strategy { return failingAt{Strategy: adaptive, at: 5, err: errBoom, boom: true} }, "",
			func(err error) bool { return errors.Is(err, errBoom) }},
		{"interrupt", func(stop chan struct{}) Strategy {
			return &interruptAt{Strategy: failingAt{Strategy: adaptive, at: -1}, at: 5, stop: stop}
		}, t.TempDir(), func(err error) bool { return errors.Is(err, ErrInterrupted) }},
		{"failed-save", func(chan struct{}) Strategy { return failingAt{Strategy: adaptive, at: -1} }, notADir,
			func(err error) bool { return err != nil && !errors.Is(err, ErrInterrupted) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			stop := make(chan struct{})
			run := cfg
			run.CheckpointDir, run.CheckpointEvery, run.Interrupt = c.dir, 1, stop
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = p.(error) // the panic reached Run's caller
					}
				}()
				_, err = Run(tr, c.strat(stop), run)
				return err
			}()
			if !c.check(err) {
				t.Fatalf("Run returned %v", err)
			}
			settled(t, base)
		})
	}
}

// TestDecideAheadRecyclesScratchConcurrently: goroutines run the golden
// case through the shared scratch pool to completion, to an Assign error,
// to an interrupt and to a failed save, concurrently. Every completed run
// is the golden record; under -race this also checks that no deciding
// goroutine touches scratch its run has put back in the pool.
func TestDecideAheadRecyclesScratchConcurrently(t *testing.T) {
	golden := goldenScratchCase(t)
	want := goldenResult(t, golden.name)
	errBoom := errors.New("boom")
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*4)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				at := 3 + (g+r)%7
				cfg := golden.config()
				res, err := Run(golden.tr, Adaptive{ImbalanceGuard: 20}, cfg)
				if err != nil || !reflect.DeepEqual(res, want) {
					errs <- fmt.Errorf("goroutine %d round %d: full run: %v, golden: %v", g, r, err, err == nil && reflect.DeepEqual(res, want))
				}
				if _, err := Run(golden.tr, failingAt{Strategy: Adaptive{ImbalanceGuard: 20}, at: at, err: errBoom}, cfg); !errors.Is(err, errBoom) {
					errs <- fmt.Errorf("goroutine %d round %d: failing run returned %v", g, r, err)
				}
				stop := make(chan struct{})
				cfg.Interrupt = stop
				if _, err := Run(golden.tr, &interruptAt{Strategy: Adaptive{ImbalanceGuard: 20}, at: at, stop: stop}, cfg); !errors.Is(err, ErrInterrupted) {
					errs <- fmt.Errorf("goroutine %d round %d: interrupted run returned %v", g, r, err)
				}
				cfg.Interrupt, cfg.CheckpointDir = nil, notADir
				if _, err := Run(golden.tr, Adaptive{ImbalanceGuard: 20}, cfg); err == nil {
					errs <- fmt.Errorf("goroutine %d round %d: a save into a file succeeded", g, r)
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
