package sched

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
)

// placingExec is a remote-style executor: it reports each attempt's
// placement through Attempt.Begin, loses the first one, and completes the
// rest. Its capacity is a counter a test can raise.
type placingExec struct {
	capacity atomic.Int32
	calls    atomic.Int32
}

func (e *placingExec) Capacity() int { return int(e.capacity.Load()) }

func (e *placingExec) Execute(a *Attempt) (*core.RunResult, error) {
	n := e.calls.Add(1)
	a.Begin(fmt.Sprintf("worker-%d", n))
	if n == 1 {
		return nil, fmt.Errorf("link to worker-1 dropped: %w", ErrLost)
	}
	return &core.RunResult{}, nil
}

func waitRun(t *testing.T, s *Scheduler, id string) RunStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAttemptBeginReportsPlacement(t *testing.T) {
	exec := &placingExec{}
	exec.capacity.Store(1)
	s := NewWithExecutor(Config{}, exec)
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "a", Payload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	st = waitRun(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if st.Placement != "worker-2" || st.Attempt != 2 || st.Failovers != 1 {
		t.Fatalf("placement %q, attempt %d, failovers %d; want worker-2, 2, 1", st.Placement, st.Attempt, st.Failovers)
	}
}

func TestKickDispatchesWhenCapacityGrows(t *testing.T) {
	exec := &placingExec{}
	exec.calls.Store(1) // complete on the first attempt
	s := NewWithExecutor(Config{}, exec)
	defer s.Close()
	st, err := s.Submit(SubmitRequest{Tenant: "a", Payload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got, _ := s.Status(st.ID); got.State != StateQueued || exec.calls.Load() != 1 {
		t.Fatalf("run %s with %d executions on a zero-capacity executor, want queued and none", got.State, exec.calls.Load()-1)
	}
	exec.capacity.Store(1)
	s.Kick()
	if st = waitRun(t, s, st.ID); st.State != StateDone {
		t.Fatalf("state %s after Kick, want done", st.State)
	}
}

func TestStoppedClosesOnceDrained(t *testing.T) {
	exec := &placingExec{}
	exec.capacity.Store(1)
	s := NewWithExecutor(Config{}, exec)
	select {
	case <-s.Stopped():
		t.Fatal("Stopped closed before any drain")
	default:
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Stopped():
	case <-time.After(5 * time.Second):
		t.Fatal("Stopped still open after Close")
	}
}
