package sched

import (
	"context"
	"fmt"
	"net/url"
	"path/filepath"
	"testing"

	"github.com/pragma-grid/pragma/internal/core"
)

// snapshotBuilder is the SpecBuilder both "processes" of the roll tests
// share: name=N selects the checkpoint directory, resume is driven by
// Restore's Resume flag rather than a wire param.
func snapshotBuilder(t testing.TB, ckptRoot string) SpecBuilder {
	return func(tenant string, priority int, v url.Values) (RunSpec, error) {
		name := v.Get("name")
		if name == "" {
			return RunSpec{}, fmt.Errorf("missing name")
		}
		spec := testSpec(t, filepath.Join(ckptRoot, tenant, name))
		spec.CheckpointEvery = 1
		return spec, nil
	}
}

// wireValues builds the url.Values a submission would carry over HTTP.
func wireValues(tenant, name string) url.Values {
	return url.Values{"tenant": {tenant}, "name": {name}}
}

func TestSnapshotRestoreLosesNoRun(t *testing.T) {
	ckptRoot := t.TempDir()
	build := snapshotBuilder(t, ckptRoot)

	// "Process one": a single worker, one run mid-flight (gated so it is
	// provably running when the drain lands) and three more queued.
	s1 := New(Config{Workers: 1, QueueLimit: 16})
	reached := make(chan struct{})
	release := make(chan struct{})
	gated := &gatedStrategy{Strategy: core.Static{P: partitioner(t)}, at: 3, reached: reached, release: release}
	inflight := testSpec(t, filepath.Join(ckptRoot, "a", "inflight"))
	inflight.CheckpointEvery = 1
	inflight.Strategy = gated
	inflight.Wire = wireValues("a", "inflight")
	if _, err := s1.Submit(SubmitRequest{Tenant: "a", Spec: inflight}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("queued-%d", i)
		spec, err := build("b", 0, wireValues("b", name))
		if err != nil {
			t.Fatal(err)
		}
		spec.Wire = wireValues("b", name)
		if _, err := s1.Submit(SubmitRequest{Tenant: "b", Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	<-reached // the in-flight run is inside regrid 3

	drainDone := make(chan error, 1)
	go func() { drainDone <- s1.Drain(context.Background()) }()
	// Released before the drain begins, the run could finish instead.
	waitFor(t, "drain to begin", s1.Draining)
	close(release)
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}

	data, skipped, err := s1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("snapshot skipped %d runs; all carried Wire", skipped)
	}

	// Sanity: process one drained 1 and cancelled 3.
	st1 := s1.Stats()
	if st1.Drained != 1 || st1.Cancelled != 3 {
		t.Fatalf("process one ended with drained=%d cancelled=%d, want 1/3", st1.Drained, st1.Cancelled)
	}

	// "Process two": restore everything and let it run to completion.
	s2 := New(Config{Workers: 2, QueueLimit: 16})
	defer s2.Close()
	restored, err := s2.Restore(data, build)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 4 {
		t.Fatalf("restored %d runs, want 4 (1 drained + 3 cancelled)", restored)
	}
	waitFor(t, "restored runs to finish", func() bool {
		return s2.Stats().Done == 4
	})

	// Every restored run must end bit-identical to the uninterrupted
	// reference — including the one resumed from its drain checkpoint.
	want := refResult(t)
	for _, st := range s2.RunsPage("", 0) {
		if st.State != StateDone {
			t.Errorf("%s ended %q (%s)", st.ID, st.State, st.Error)
			continue
		}
		sameRunResult(t, st.ID, st.Result, want)
	}
}

func TestSnapshotSkipsUnwiredAndTerminal(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 16})
	// A run that completes (terminal: not part of the backlog).
	st, err := s.Submit(SubmitRequest{Payload: func(<-chan struct{}) (*core.RunResult, error) {
		return &core.RunResult{Strategy: "noop"}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	// A queued run without Wire: restorable in principle, but not
	// serializable — counted as skipped.
	block := make(chan struct{})
	defer close(block)
	if _, err := s.Submit(SubmitRequest{Payload: func(<-chan struct{}) (*core.RunResult, error) {
		<-block
		return &core.RunResult{Strategy: "noop"}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocked run to occupy the worker", func() bool {
		return s.Stats().Active == 1
	})
	unwired := testSpec(t, "")
	if _, err := s.Submit(SubmitRequest{Tenant: "x", Spec: unwired}); err != nil {
		t.Fatal(err)
	}

	data, skipped, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped %d, want 1 (the unwired queued spec)", skipped)
	}
	s2 := New(Config{Workers: 1, QueueLimit: 16})
	defer s2.Close()
	restored, err := s2.Restore(data, snapshotBuilder(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Errorf("restored %d, want 0 (done run is history, unwired skipped)", restored)
	}
}

func TestRestoreRejectsCorruptAndForeign(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	build := snapshotBuilder(t, t.TempDir())
	if _, err := s.Restore([]byte("not a checkpoint"), build); err == nil {
		t.Error("corrupt container accepted")
	}
	data, _, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: CRC must catch it.
	if len(data) > 30 {
		data[len(data)-1] ^= 0xFF
		if _, err := s.Restore(data, build); err == nil {
			t.Error("bit-flipped container accepted")
		}
	}
	if _, err := s.Restore(nil, nil); err == nil {
		t.Error("nil builder accepted")
	}
}

// TestSnapshotCarriesWeights proves tenant weights survive the
// snapshot/restore roll: a restored backlog is re-admitted with the same
// per-tenant weights it was submitted with.
func TestSnapshotCarriesWeights(t *testing.T) {
	ckptRoot := t.TempDir()
	build := snapshotBuilder(t, ckptRoot)
	s1 := newTestScheduler(Config{Workers: 1, QueueLimit: 16})
	defer s1.Close() // its released backlog must not outlive the temp dir

	// Park the worker so the weighted runs stay queued for the snapshot.
	block := make(chan struct{})
	if _, err := s1.Submit(SubmitRequest{Payload: func(<-chan struct{}) (*core.RunResult, error) {
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gate run to occupy the worker", func() bool {
		return s1.Stats().Active == 1
	})
	weights := map[string]float64{"gold": 8, "coach": 0.5}
	for tenant := range weights {
		spec, err := build(tenant, 0, wireValues(tenant, "job"))
		if err != nil {
			t.Fatal(err)
		}
		spec.Wire = wireValues(tenant, "job")
		st, err := s1.Submit(SubmitRequest{Tenant: tenant, Weight: weights[tenant], Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if st.Weight != weights[tenant] {
			t.Fatalf("tenant %s submitted at weight %v, status says %v", tenant, weights[tenant], st.Weight)
		}
	}

	data, skipped, err := s1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d, want 0 (the gate run is in flight, not backlog)", skipped)
	}
	close(block)

	s2 := New(Config{Workers: 1, QueueLimit: 16})
	defer s2.Close()
	restored, err := s2.Restore(data, build)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d runs, want 2", restored)
	}
	waitFor(t, "restored runs to finish", func() bool { return s2.Stats().Done == 2 })
	seen := 0
	for _, st := range s2.RunsPage("", 0) {
		want, ok := weights[st.Tenant]
		if !ok {
			t.Errorf("unexpected restored tenant %q", st.Tenant)
			continue
		}
		seen++
		if st.Weight != want {
			t.Errorf("restored tenant %s at weight %v, want %v", st.Tenant, st.Weight, want)
		}
	}
	if seen != 2 {
		t.Errorf("saw %d restored runs, want 2", seen)
	}
}
