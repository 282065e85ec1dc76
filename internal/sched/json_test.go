package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/jsonenc"
)

// assertStatusJSON encodes st both ways and fails on any byte difference.
func assertStatusJSON(t *testing.T, label string, st RunStatus) {
	t.Helper()
	want, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	b := jsonenc.Get()
	defer jsonenc.Put(b)
	appendStatusJSON(b, &st)
	if !bytes.Equal(b.B, want) {
		t.Errorf("%s: appendStatusJSON diverges from json.Marshal\n got: %s\nwant: %s", label, b.B, want)
	}
}

func TestStatusJSONMatchesEncodingJSON(t *testing.T) {
	s := New(Config{Workers: 2, QueueLimit: 16})
	defer s.Close()

	// Done run with a full result profile (exercises the nested
	// RunResult/SnapshotStat/Quality encode).
	done, err := s.Submit(SubmitRequest{Tenant: "acme", Priority: 2, Spec: testSpec(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("run ended %q (%s)", final.State, final.Error)
	}
	assertStatusJSON(t, "done", final)

	// Failed run with an escaping-hostile wrapped error.
	failed, err := s.Submit(SubmitRequest{Tenant: "bob \"the\" builder", RunFunc: func(<-chan struct{}) (*core.RunResult, error) {
		return nil, fmt.Errorf("wrapped: %w", errors.New("boom\nwith \"newline\""))
	}})
	if err != nil {
		t.Fatal(err)
	}
	ffinal, _ := s.Wait(context.Background(), failed.ID)
	if ffinal.State != StateFailed || ffinal.Error == "" {
		t.Fatalf("failure run ended %q", ffinal.State)
	}
	assertStatusJSON(t, "failed", ffinal)

	// Queued-shaped status (zero Started/Finished exercise omitzero).
	assertStatusJSON(t, "queued", RunStatus{
		ID: "run-000042", State: StateQueued, Submitted: time.Now(),
	})

	// Drained-shaped status with resumable + checkpointDir.
	assertStatusJSON(t, "drained", RunStatus{
		ID: "run-000007", Tenant: "t", State: StateDrained,
		Submitted: time.Now(), Started: time.Now(), Finished: time.Now(),
		QueueSeconds: 0.125, RunSeconds: 1e-7, // 'e'-form float
		Error:     "core: regrid 3: run interrupted at regrid boundary",
		Resumable: true, CheckpointDir: "/tmp/ckpt/t/run",
	})

	// What a fleet router's executor reports; absent on a single node.
	assertStatusJSON(t, "placed", RunStatus{
		ID: "run-000009", Tenant: "t", State: StateRunning,
		Submitted: time.Now(), Started: time.Now(),
		Preemptions: 1, Placement: "w \"2\"", Attempt: 3, Failovers: 2,
	})
	assertStatusJSON(t, "local fallback", RunStatus{
		ID: "run-000010", State: StateQueued, Submitted: time.Now(),
		Placement: "local", Attempt: 1,
	})
}

func TestHandlerStatusAndRunsWireFormatUnchanged(t *testing.T) {
	// The CI smoke and any existing client parse /sched/status and
	// /sched/runs with encoding/json field names; the pooled encoder must
	// be invisible on the wire.
	s := New(Config{Workers: 2, QueueLimit: 16})
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "a", Spec: testSpec(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}

	got, ok := s.Status(st.ID)
	if !ok {
		t.Fatal("run vanished")
	}
	wantStatus, _ := json.Marshal(got)
	b := jsonenc.Get()
	if !s.statusJSONLocked(st.ID, b) {
		t.Fatal("statusJSONLocked miss")
	}
	if !bytes.Equal(b.B, wantStatus) {
		t.Errorf("status wire bytes changed\n got: %s\nwant: %s", b.B, wantStatus)
	}
	jsonenc.Put(b)

	runs := s.Runs()
	wantRuns, _ := json.Marshal(runs)
	rb := jsonenc.Get()
	rb.Byte('[')
	for i := range runs {
		if i > 0 {
			rb.Byte(',')
		}
		appendStatusJSON(rb, &runs[i])
	}
	rb.Byte(']')
	if !bytes.Equal(rb.B, wantRuns) {
		t.Errorf("runs wire bytes changed\n got: %s\nwant: %s", rb.B, wantRuns)
	}
	jsonenc.Put(rb)
}

func TestStatusEncodeZeroAllocs(t *testing.T) {
	s := New(Config{Workers: 2, QueueLimit: 16})
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "acme", Spec: testSpec(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	// Warm the pool.
	b := jsonenc.Get()
	s.statusJSONLocked(st.ID, b)
	jsonenc.Put(b)
	allocs := testing.AllocsPerRun(1000, func() {
		buf := jsonenc.Get()
		s.statusJSONLocked(st.ID, buf)
		jsonenc.Put(buf)
	})
	if allocs != 0 {
		t.Errorf("status encode path allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkServeStatusJSON measures the /sched/status encode hot path for
// a done run carrying a full 16-snapshot result profile.
func BenchmarkServeStatusJSON(b *testing.B) {
	s := New(Config{Workers: 2, QueueLimit: 16})
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "acme", Spec: testSpec(b, "")})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := jsonenc.Get()
		s.statusJSONLocked(st.ID, buf)
		jsonenc.Put(buf)
	}
}

// BenchmarkServeStatusJSONStdlib is the encoding/json reference for the
// same response.
func BenchmarkServeStatusJSONStdlib(b *testing.B) {
	s := New(Config{Workers: 2, QueueLimit: 16})
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "acme", Spec: testSpec(b, "")})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _ := s.Status(st.ID)
		if _, err := json.Marshal(got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeRunsJSON measures a 64-record /sched/runs page encode.
func BenchmarkServeRunsJSON(b *testing.B) {
	s := New(Config{Workers: 2, QueueLimit: 128})
	defer s.Close()
	for i := 0; i < 64; i++ {
		if _, err := s.Submit(SubmitRequest{
			Tenant:  fmt.Sprintf("t%d", i%8),
			RunFunc: func(<-chan struct{}) (*core.RunResult, error) { return &core.RunResult{Strategy: "noop"}, nil },
		}); err != nil {
			b.Fatal(err)
		}
	}
	waitIdle := func() {
		for s.Stats().Active > 0 || s.Stats().QueueDepth > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	waitIdle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs := s.RunsPage("", DefaultRunsLimit)
		buf := jsonenc.Get()
		buf.Byte('[')
		for j := range runs {
			if j > 0 {
				buf.Byte(',')
			}
			appendStatusJSON(buf, &runs[j])
		}
		buf.Byte(']')
		jsonenc.Put(buf)
	}
}
