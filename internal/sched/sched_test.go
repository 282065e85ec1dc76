package sched

import (
	"context"
	"errors"
	"fmt"
	"go/build"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

// tinyTrace is a deliberately small RM3D trace (16x8x8 base, 2 levels,
// 16 snapshots) so stress tests can push dozens of real replays through
// the pool under -race in seconds.
var tinyTrace = struct {
	once sync.Once
	tr   *samr.Trace
	err  error
}{}

func testTrace(t testing.TB) *samr.Trace {
	t.Helper()
	tinyTrace.once.Do(func() {
		cfg := rm3d.SmallConfig()
		cfg.BaseDims = [3]int{16, 8, 8}
		cfg.MaxDepth = 2
		cfg.CoarseSteps = 60 // 16 snapshots
		tinyTrace.tr, tinyTrace.err = rm3d.GenerateTrace(cfg)
	})
	if tinyTrace.err != nil {
		t.Fatal(tinyTrace.err)
	}
	return tinyTrace.tr
}

func partitioner(t testing.TB) partition.Partitioner {
	t.Helper()
	p, err := partition.ByName("G-MISP+SP")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testSpec(t testing.TB, ckptDir string) RunSpec {
	t.Helper()
	return RunSpec{
		Trace:         testTrace(t),
		Strategy:      core.Static{P: partitioner(t)},
		Machine:       cluster.SP2(4),
		NProcs:        4,
		CheckpointDir: ckptDir,
	}
}

// refResult computes the uninterrupted reference result the scheduler's
// runs must all reproduce (same trace, strategy, machine → bit-identical
// profile; any deviation is cross-run interference).
func refResult(t testing.TB) *core.RunResult {
	t.Helper()
	res, err := core.Run(testTrace(t), core.Static{P: partitioner(t)}, core.RunConfig{
		Machine: cluster.SP2(4), NProcs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameRunResult(t *testing.T, label string, got, want *core.RunResult) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", label)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result diverged from the reference: TotalTime %v vs %v, Steps %d vs %d",
			label, got.TotalTime, want.TotalTime, got.Steps, want.Steps)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedStrategy blocks inside Assign at one regrid index until released,
// so tests can hold a run provably mid-flight.
type gatedStrategy struct {
	core.Strategy
	at      int
	reached chan struct{}
	release <-chan struct{}
	once    sync.Once
}

func (g *gatedStrategy) Assign(ctx *core.StepContext) (*partition.Assignment, string, error) {
	if ctx.Index == g.at {
		g.once.Do(func() { close(g.reached) })
		<-g.release
	}
	return g.Strategy.Assign(ctx)
}

func TestSubmitValidatesSpec(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(SubmitRequest{Tenant: "t"}); err == nil {
		t.Fatal("empty spec admitted")
	}
	spec := testSpec(t, "")
	spec.Strategy = nil
	if _, err := s.Submit(SubmitRequest{Tenant: "t", Spec: spec}); err == nil {
		t.Fatal("spec without strategy admitted")
	}
}

func TestSchedulerRunsToCompletion(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "acme", Spec: testSpec(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("fresh submission has state %q id %q", st.State, st.ID)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("run finished %q (%s), want done", final.State, final.Error)
	}
	sameRunResult(t, final.ID, final.Result, refResult(t))
	if final.RunSeconds < 0 || final.QueueSeconds < 0 {
		t.Fatalf("negative latencies: queue %v run %v", final.QueueSeconds, final.RunSeconds)
	}
}

// runFunc is a synthetic run body. A test submits one as the Payload of a
// scheduler built by newTestScheduler, whose executor calls it with the
// attempt's interrupt channel; one returning an error that wraps
// core.ErrInterrupted yielded to the interrupt.
type runFunc = func(interrupt <-chan struct{}) (*core.RunResult, error)

// funcExec executes a runFunc payload itself and hands every other attempt
// to Local, so one scheduler serves synthetic runs and replays side by side.
type funcExec struct{ Local }

func (e funcExec) Execute(a *Attempt) (*core.RunResult, error) {
	if f, ok := a.Payload.(runFunc); ok {
		return f(a.Interrupt)
	}
	return e.Local.Execute(a)
}

// newTestScheduler is New with funcExec as the executor.
func newTestScheduler(cfg Config) *Scheduler {
	cfg.fill()
	return NewWithExecutor(cfg, funcExec{Local{Workers: cfg.Workers, Events: cfg.Events}})
}

// blockingRun returns a runFunc that parks until gate closes.
func blockingRun(gate <-chan struct{}) runFunc {
	return func(<-chan struct{}) (*core.RunResult, error) {
		<-gate
		return nil, nil
	}
}

func TestAdmissionSaturation(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 2})
	defer s.Close()
	gate := make(chan struct{})
	defer close(gate)

	if _, err := s.Submit(SubmitRequest{Tenant: "a", Payload: blockingRun(gate)}); err != nil {
		t.Fatal(err)
	}
	// The single worker must pick it up so the queue is empty again.
	waitFor(t, "the blocker to start", func() bool { return s.Stats().Active == 1 })

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(SubmitRequest{Tenant: "a", Payload: blockingRun(gate)}); err != nil {
			t.Fatalf("queued submission %d rejected: %v", i, err)
		}
	}
	_, err := s.Submit(SubmitRequest{Tenant: "b", Payload: blockingRun(gate)})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("submission over the queue limit returned %v, want ErrSaturated", err)
	}
	if st := s.Stats(); st.QueueDepth != 2 {
		t.Fatalf("queue depth %d, want 2", st.QueueDepth)
	}
}

func TestTenantLimit(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 16, TenantLimit: 2})
	defer s.Close()
	gate := make(chan struct{})
	defer close(gate)

	if _, err := s.Submit(SubmitRequest{Tenant: "greedy", Payload: blockingRun(gate)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the blocker to start", func() bool { return s.Stats().Active == 1 })
	if _, err := s.Submit(SubmitRequest{Tenant: "greedy", Payload: blockingRun(gate)}); err != nil {
		t.Fatal(err)
	}
	// Running plus queued hits the limit; the third is rejected…
	_, err := s.Submit(SubmitRequest{Tenant: "greedy", Payload: blockingRun(gate)})
	if !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("over-limit tenant got %v, want ErrTenantLimit", err)
	}
	// …while other tenants are unaffected.
	if _, err := s.Submit(SubmitRequest{Tenant: "patient", Payload: blockingRun(gate)}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
}

// TestPriorityAndTenantFairness pins the pool to one worker, parks it on a
// warmup job, queues a mixed backlog, and asserts the execution order:
// the high-priority run first, then one run per tenant per rotation.
func TestPriorityAndTenantFairness(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 16})
	defer s.Close()
	gate := make(chan struct{})

	var mu sync.Mutex
	var order []string
	record := func(label string) runFunc {
		return func(<-chan struct{}) (*core.RunResult, error) {
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
			return nil, nil
		}
	}

	if _, err := s.Submit(SubmitRequest{Tenant: "warm", Payload: blockingRun(gate)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the warmup job to park the worker", func() bool { return s.Stats().Active == 1 })

	submit := func(tenant string, priority int, label string) {
		t.Helper()
		if _, err := s.Submit(SubmitRequest{Tenant: tenant, Priority: priority, Payload: record(label)}); err != nil {
			t.Fatal(err)
		}
	}
	submit("A", 0, "a1")
	submit("A", 0, "a2")
	submit("A", 0, "a3")
	submit("B", 0, "b1")
	submit("C", 0, "c1")
	submit("A", 5, "hi")

	close(gate)
	waitFor(t, "the backlog to finish", func() bool { return s.Stats().Done == 7 })

	want := []string{"hi", "a1", "b1", "c1", "a2", "a3"}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("execution order %v, want %v", order, want)
	}
}

// TestRunIsolation: one run panicking and another failing with a run error
// must not disturb sibling runs or kill pool workers.
func TestRunIsolation(t *testing.T) {
	s := newTestScheduler(Config{Workers: 2, QueueLimit: 16})
	defer s.Close()

	boom, err := s.Submit(SubmitRequest{Tenant: "bad", Payload: func(<-chan struct{}) (*core.RunResult, error) {
		panic("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	sad, err := s.Submit(SubmitRequest{Tenant: "bad", Payload: func(<-chan struct{}) (*core.RunResult, error) {
		return nil, fmt.Errorf("lost workers")
	}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(SubmitRequest{Tenant: "good", Spec: testSpec(t, "")})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if st, _ := s.Wait(ctx, boom.ID); st.State != StateFailed || st.Error == "" {
		t.Fatalf("panicking run recorded as %q (%s), want failed with error", st.State, st.Error)
	}
	if st, _ := s.Wait(ctx, sad.ID); st.State != StateFailed {
		t.Fatalf("erroring run recorded as %q, want failed", st.State)
	}
	st, _ := s.Wait(ctx, good.ID)
	if st.State != StateDone {
		t.Fatalf("sibling run finished %q (%s), want done", st.State, st.Error)
	}
	sameRunResult(t, "sibling of panicking run", st.Result, refResult(t))

	// The pool must still serve new work after a panic.
	again, err := s.Submit(SubmitRequest{Tenant: "good", Spec: testSpec(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Wait(ctx, again.ID); st.State != StateDone {
		t.Fatalf("post-panic run finished %q, want done", st.State)
	}
}

// TestDrainCheckpointsInFlightAndCancelsBacklog is the drain contract:
// queued runs are cancelled without starting, in-flight runs are
// interrupted at their next regrid boundary and checkpoint first, Drain
// waits for the pool to exit, and every drained run resumes to the
// identical final result.
func TestDrainCheckpointsInFlightAndCancelsBacklog(t *testing.T) {
	tr := testTrace(t)
	p := partitioner(t)
	ref := refResult(t)
	s := New(Config{Workers: 2, QueueLimit: 16})

	release := make(chan struct{})
	var inflight []string
	var dirs []string
	var gates []*gatedStrategy
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		g := &gatedStrategy{
			Strategy: core.Static{P: p},
			at:       2,
			reached:  make(chan struct{}),
			release:  release,
		}
		spec := testSpec(t, dir)
		spec.Strategy = g
		spec.CheckpointEvery = 10_000 // only the drain-save may write
		st, err := s.Submit(SubmitRequest{Tenant: fmt.Sprintf("t%d", i), Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		inflight = append(inflight, st.ID)
		dirs = append(dirs, dir)
		gates = append(gates, g)
	}
	var backlog []string
	for i := 0; i < 2; i++ {
		st, err := s.Submit(SubmitRequest{Tenant: "late", Spec: testSpec(t, "")})
		if err != nil {
			t.Fatal(err)
		}
		backlog = append(backlog, st.ID)
	}
	for _, g := range gates {
		<-g.reached
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	waitFor(t, "drain to begin", func() bool { return s.Stats().Draining })
	// New work is refused the moment draining starts.
	if _, err := s.Submit(SubmitRequest{Tenant: "late", Spec: testSpec(t, "")}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain returned %v, want ErrDraining", err)
	}
	close(release) // let the in-flight runs reach their next boundary
	if err := <-drainErr; err != nil {
		t.Fatal(err)
	}
	// Drain is idempotent once complete.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, id := range backlog {
		st, ok := s.Status(id)
		if !ok || st.State != StateCancelled {
			t.Fatalf("backlog run %s in state %q, want cancelled", id, st.State)
		}
	}
	for i, id := range inflight {
		st, ok := s.Status(id)
		if !ok || st.State != StateDrained {
			t.Fatalf("in-flight run %s in state %q (%s), want drained", id, st.State, st.Error)
		}
		if !st.Resumable || st.CheckpointDir != dirs[i] {
			t.Fatalf("drained run %s not marked resumable from %q", id, st.CheckpointDir)
		}
	}
	stats := s.Stats()
	if stats.Drained != 2 || stats.Cancelled != 2 || stats.Active != 0 || stats.QueueDepth != 0 {
		t.Fatalf("post-drain stats %+v", stats)
	}

	// A fresh scheduler resumes the drained runs to the reference result.
	s2 := New(Config{Workers: 2})
	defer s2.Close()
	for i, dir := range dirs {
		spec := RunSpec{
			Trace: tr, Strategy: core.Static{P: p},
			Machine: cluster.SP2(4), NProcs: 4,
			CheckpointDir: dir, CheckpointEvery: 10_000,
			Resume: true,
		}
		st, err := s2.Submit(SubmitRequest{Tenant: fmt.Sprintf("t%d", i), Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		final, err := s2.Wait(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("resumed run finished %q (%s), want done", final.State, final.Error)
		}
		sameRunResult(t, "resumed "+st.ID, final.Result, ref)
	}
}

// TestStressManyRunsWithDrain is the acceptance stress: 36 real replays
// from four tenants pushed through a 4-worker pool under -race, goroutine
// count bounded by the pool (not the submission count), a drain landing
// mid-flight, zero cross-run interference, and every drained run resumable
// from its checkpoint to the identical result.
func TestStressManyRunsWithDrain(t *testing.T) {
	const submissions = 36
	tr := testTrace(t)
	p := partitioner(t)
	ref := refResult(t)

	before := runtime.NumGoroutine()
	s := New(Config{Workers: 4, QueueLimit: submissions})
	root := t.TempDir()
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	ids := make([]string, 0, submissions)
	dirs := make(map[string]string, submissions)
	for i := 0; i < submissions; i++ {
		dir := filepath.Join(root, fmt.Sprintf("run-%02d", i))
		st, err := s.Submit(SubmitRequest{
			Tenant:   tenants[i%len(tenants)],
			Priority: i % 3,
			Spec:     testSpec(t, dir),
		})
		if err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
		ids = append(ids, st.ID)
		dirs[st.ID] = dir
	}

	// The pool adds exactly Workers goroutines; active replays add
	// transient kernel helpers bounded by GOMAXPROCS each. Nothing may
	// scale with the submission count.
	limit := before + 4 + 4*runtime.GOMAXPROCS(0) + 16
	if n := runtime.NumGoroutine(); n > limit {
		t.Fatalf("%d goroutines for %d submissions over a 4-worker pool (bound %d)",
			n, submissions, limit)
	}

	waitFor(t, "a batch of runs to finish", func() bool { return s.Stats().Done >= 8 })
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	var done, drained, cancelled int
	for _, id := range ids {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("run %s evicted prematurely", id)
		}
		switch st.State {
		case StateDone:
			done++
			sameRunResult(t, st.ID, st.Result, ref)
		case StateDrained:
			drained++
			if !st.Resumable {
				t.Fatalf("drained run %s not resumable", id)
			}
			res, err := core.Run(tr, core.Static{P: p}, core.RunConfig{
				Machine: cluster.SP2(4), NProcs: 4,
				CheckpointDir: dirs[id], Resume: true,
			})
			if err != nil {
				t.Fatalf("resuming %s: %v", id, err)
			}
			sameRunResult(t, "resumed "+id, res, ref)
		case StateCancelled:
			cancelled++
		default:
			t.Fatalf("run %s ended in state %q (%s)", id, st.State, st.Error)
		}
	}
	if done+drained+cancelled != submissions {
		t.Fatalf("accounted for %d runs, want %d", done+drained+cancelled, submissions)
	}
	if done < 8 {
		t.Fatalf("only %d runs completed before the drain", done)
	}
	t.Logf("done %d, drained %d, cancelled %d", done, drained, cancelled)
}

func TestWaitUnknownRun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Wait(context.Background(), "run-999999"); err == nil {
		t.Fatal("Wait on unknown id succeeded")
	}
	if _, ok := s.Status("run-999999"); ok {
		t.Fatal("Status on unknown id succeeded")
	}
}

func TestKeepFinishedEviction(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1})
	defer s.Close()
	noop := func(<-chan struct{}) (*core.RunResult, error) { return nil, nil }
	var first string
	for i := 0; i < keepFinished+6; i++ {
		st, err := s.Submit(SubmitRequest{Tenant: "t", Payload: noop})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.ID
		}
		if _, err := s.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Status(first); ok {
		t.Fatal("oldest terminal record survived past keepFinished")
	}
	if got := len(s.RunsPage("", 0)); got != keepFinished {
		t.Fatalf("retained %d records, want %d", got, keepFinished)
	}
}

// TestExecutionStaysBehindExecutor: the lifecycle describes a run and
// leaves its execution to the Executor, so no non-test file of the
// package reaches the control network.
func TestExecutionStaysBehindExecutor(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if strings.HasSuffix(imp, "internal/agents") {
			t.Errorf("sched imports %s", imp)
		}
	}
}
