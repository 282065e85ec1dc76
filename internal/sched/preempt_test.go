package sched

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
)

// costRun returns a runFunc whose reported cost is `intervals` completed
// regrid intervals — what the scheduler charges to the tenant's
// normalized service.
func costRun(intervals int) runFunc {
	return func(<-chan struct{}) (*core.RunResult, error) {
		return &core.RunResult{Snapshots: make([]core.SnapshotStat, intervals)}, nil
	}
}

// TestWeightedFairnessRatios saturates a single worker with three tenants
// at weights 1:2:4 and proves completed work tracks the weights
// proportionally (±20%, the acceptance bound; the engine is deterministic
// here so the ratios are in fact exact).
func TestWeightedFairnessRatios(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 256, PreemptRatio: -1})
	defer s.Close()

	// Park the only worker so the whole backlog is queued before the
	// first weighted dispatch decision.
	blocked := make(chan struct{})
	release := make(chan struct{})
	if _, err := s.Submit(SubmitRequest{Tenant: "gate", Payload: func(<-chan struct{}) (*core.RunResult, error) {
		close(blocked)
		<-release
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-blocked

	var mu sync.Mutex
	var order []string
	runFor := func(tenant string) runFunc {
		return func(<-chan struct{}) (*core.RunResult, error) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			return costRun(8)(nil)
		}
	}
	weights := map[string]float64{"A": 1, "B": 2, "C": 4}
	for i := 0; i < 30; i++ {
		for _, tn := range []string{"A", "B", "C"} {
			if _, err := s.Submit(SubmitRequest{Tenant: tn, Weight: weights[tn], Payload: runFor(tn)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(release)

	// Measure a saturated window: the first 28 completions, while all
	// three tenants are still backlogged. (Weights 1:2:4 sum to 7, so 28
	// completions split 4:8:16.)
	waitFor(t, "28 completions", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) >= 28
	})
	mu.Lock()
	counts := map[string]int{}
	for _, tn := range order[:28] {
		counts[tn]++
	}
	mu.Unlock()
	for tn, w := range weights {
		want := 28 * w / 7
		got := float64(counts[tn])
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("tenant %s (weight %v): %v completions in saturated window, want %v +-20%% (counts %v)",
				tn, w, got, want, counts)
		}
	}
}

// TestPreemptResumeBitIdentical is the differential guarantee: a run
// preempted mid-flight by a higher band checkpoints at its next regrid
// boundary, reports StatePreempted (resumable), and once re-dispatched
// resumes to a final result bit-identical to a never-interrupted
// reference run.
func TestPreemptResumeBitIdentical(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 16})
	defer s.Close()

	reached := make(chan struct{})
	release := make(chan struct{})
	spec := testSpec(t, filepath.Join(t.TempDir(), "bg"))
	spec.CheckpointEvery = 1
	spec.Strategy = &gatedStrategy{Strategy: spec.Strategy, at: 3, reached: reached, release: release}
	st, err := s.Submit(SubmitRequest{Tenant: "bg", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	<-reached // bg provably mid-flight at regrid 3

	// A higher-band submit finds the pool saturated and preempts bg.
	vipGate := make(chan struct{})
	vip, err := s.Submit(SubmitRequest{Tenant: "vip", Priority: 1, Payload: func(<-chan struct{}) (*core.RunResult, error) {
		<-vipGate
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "preemption to fire", func() bool { return s.Stats().Preemptions == 1 })

	// Let bg reach its next boundary: it must checkpoint, yield the
	// worker to vip, and wait preempted-resumable.
	close(release)
	waitFor(t, "bg to report preempted", func() bool {
		cur, ok := s.Status(st.ID)
		return ok && cur.State == StatePreempted
	})
	cur, _ := s.Status(st.ID)
	if !cur.Resumable || cur.CheckpointDir == "" {
		t.Errorf("preempted run not resumable: %+v", cur)
	}
	if cur.Preemptions != 1 {
		t.Errorf("preempted run reports %d preemptions, want 1", cur.Preemptions)
	}

	close(vipGate)
	if _, err := s.Wait(context.Background(), vip.ID); err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("preempted run ended %q (err %q), want done", final.State, final.Error)
	}
	sameRunResult(t, "preempted+resumed run", final.Result, refResult(t))
}

// TestPreemptionOverShareSameBand exercises the service-based trigger: no
// priority difference, but the running tenant is far over-share, so an
// under-share tenant's submit evicts it and runs first.
func TestPreemptionOverShareSameBand(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 16})
	defer s.Close()

	// bg earns 10 cost units, then parks its second run on the worker.
	// The earner must finish before the blocker is dispatched (one
	// worker), and bg keeps a run in flight throughout, so its service
	// survives (tenantExit never fires): the earner holds the worker until
	// the blocker is queued.
	bgBlocked := make(chan struct{})
	blockerQueued := make(chan struct{})
	var attempts int32
	blocker := func(interrupt <-chan struct{}) (*core.RunResult, error) {
		if atomic.AddInt32(&attempts, 1) == 1 {
			close(bgBlocked)
			<-interrupt
			return nil, fmt.Errorf("sched test: yielding: %w", core.ErrInterrupted)
		}
		return costRun(1)(nil)
	}
	earner := func(<-chan struct{}) (*core.RunResult, error) {
		<-blockerQueued
		return costRun(10)(nil)
	}
	if _, err := s.Submit(SubmitRequest{Tenant: "bg", Payload: earner}); err != nil {
		t.Fatal(err)
	}
	// A checkpoint directory is what makes the blocker preemptible.
	stB, err := s.Submit(SubmitRequest{Tenant: "bg", Payload: blocker, Spec: RunSpec{CheckpointDir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	close(blockerQueued)
	<-bgBlocked

	var fgOrder, bgOrder time.Time
	stF, err := s.Submit(SubmitRequest{Tenant: "fg", Payload: func(<-chan struct{}) (*core.RunResult, error) {
		fgOrder = time.Now()
		return costRun(1)(nil)
	}})
	if err != nil {
		t.Fatal(err)
	}

	fgFinal, err := s.Wait(context.Background(), stF.ID)
	if err != nil {
		t.Fatal(err)
	}
	bgFinal, err := s.Wait(context.Background(), stB.ID)
	if err != nil {
		t.Fatal(err)
	}
	bgOrder = bgFinal.Finished

	if got := s.Stats().Preemptions; got != 1 {
		t.Errorf("preemptions = %d, want 1", got)
	}
	if fgFinal.State != StateDone || bgFinal.State != StateDone {
		t.Fatalf("states fg=%q bg=%q, want done/done", fgFinal.State, bgFinal.State)
	}
	if bgFinal.Preemptions != 1 {
		t.Errorf("bg blocker reports %d preemptions, want 1", bgFinal.Preemptions)
	}
	if !fgOrder.Before(bgOrder) {
		t.Errorf("under-share fg did not run before the preempted bg finished")
	}
}

// TestPreemptionStarvationFreedom floods two workers from six tenants with
// wildly different weights and priorities, with run bodies that yield to
// their first interrupts, and requires every admitted run to complete.
func TestPreemptionStarvationFreedom(t *testing.T) {
	s := newTestScheduler(Config{Workers: 2, QueueLimit: 512})
	defer s.Close()

	newBody := func() runFunc {
		var attempts int32
		return func(interrupt <-chan struct{}) (*core.RunResult, error) {
			n := atomic.AddInt32(&attempts, 1)
			time.Sleep(100 * time.Microsecond)
			select {
			case <-interrupt:
				if n < 3 { // yield to preemption, but bound the retries
					return nil, fmt.Errorf("sched test: yielding: %w", core.ErrInterrupted)
				}
			default:
			}
			return costRun(2)(nil)
		}
	}
	weights := []float64{0.5, 1, 2, 4, 8, 64}
	root := t.TempDir() // every run checkpoints under it, so every run is preemptible
	var ids []string
	for i, w := range weights {
		tenant := fmt.Sprintf("t%d", i)
		for j := 0; j < 8; j++ {
			st, err := s.Submit(SubmitRequest{Tenant: tenant, Weight: w, Priority: j % 2, Payload: newBody(), CheckpointRoot: root})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatalf("run %s never finished: %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("run %s ended %q, want done", id, st.State)
		}
	}
}

// TestSubmitWeightClampAndStickiness pins the weight plumbing: clamping
// into [MinWeight, MaxWeight], zero meaning "keep the tenant's current
// weight", and the default for undeclared tenants.
func TestSubmitWeightClampAndStickiness(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 16, PreemptRatio: -1})
	defer s.Close()

	// Hold the worker so tenant "t" stays active between submits (an idle
	// tenant's weight resets when its last run finishes).
	blocked := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit(SubmitRequest{Tenant: "gate", Payload: func(<-chan struct{}) (*core.RunResult, error) {
		close(blocked)
		<-release
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-blocked

	noop := func(<-chan struct{}) (*core.RunResult, error) { return nil, nil }
	cases := []struct {
		weight float64
		want   float64
	}{
		{1000, MaxWeight},  // clamped high
		{0, MaxWeight},     // zero keeps the tenant's current weight
		{0.001, MinWeight}, // clamped low
		{3, 3},
	}
	for i, c := range cases {
		st, err := s.Submit(SubmitRequest{Tenant: "t", Weight: c.weight, Payload: noop})
		if err != nil {
			t.Fatal(err)
		}
		if st.Weight != c.want {
			t.Errorf("submit %d (weight %v): status weight %v, want %v", i, c.weight, st.Weight, c.want)
		}
	}
	st, err := s.Submit(SubmitRequest{Tenant: "fresh", Payload: noop})
	if err != nil {
		t.Fatal(err)
	}
	if st.Weight != DefaultWeight {
		t.Errorf("undeclared tenant weight %v, want DefaultWeight", st.Weight)
	}
}
