package sched

import (
	"context"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/stream"
)

func TestEventsObserveEveryTransition(t *testing.T) {
	hub := stream.NewHub(stream.Config{})
	defer hub.Close()
	s := New(Config{Workers: 2, QueueLimit: 16, Events: hub})
	defer s.Close()

	st, err := s.Submit(SubmitRequest{Tenant: "acme", Spec: testSpec(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	// Attach AFTER submitting: history replay must close the race.
	sub := hub.Subscribe(st.ID, 0)

	var states []string
	regrids := 0
	deadline := time.After(30 * time.Second)
	for {
		select {
		case e, ok := <-sub.C:
			if !ok {
				t.Fatal("subscription closed early")
			}
			switch e.Type {
			case stream.TypeState:
				states = append(states, e.State)
			case stream.TypeRegrid:
				if e.Partitioner == "" {
					t.Error("regrid event without partitioner")
				}
				regrids++
			}
		case <-deadline:
			t.Fatalf("timed out; states so far %v", states)
		}
		if len(states) > 0 && State(states[len(states)-1]).Terminal() {
			break
		}
	}
	want := []string{"queued", "running", "done"}
	if len(states) != 3 || states[0] != want[0] || states[1] != want[1] || states[2] != want[2] {
		t.Errorf("state events %v, want %v", states, want)
	}
	if wantRegrids := len(testTrace(t).Snapshots); regrids != wantRegrids {
		t.Errorf("saw %d regrid events, want %d (one per snapshot)", regrids, wantRegrids)
	}
	if d := sub.Dropped(); d != 0 {
		t.Errorf("subscriber dropped %d events unexpectedly", d)
	}
}

func TestSlowSubscriberNeverBlocksSubmit(t *testing.T) {
	hub := stream.NewHub(stream.Config{SubBuffer: 1})
	defer hub.Close()
	s := newTestScheduler(Config{Workers: 2, QueueLimit: 512, Events: hub})
	defer s.Close()

	// A subscriber that never reads: every publish past its 1-slot buffer
	// must drop, not block.
	sub := hub.Subscribe("", 0)

	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := s.Submit(SubmitRequest{
				Tenant: "flood",
				Payload: func(<-chan struct{}) (*core.RunResult, error) {
					<-block
					return &core.RunResult{Strategy: "noop"}, nil
				},
			}); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Submit blocked behind a slow event subscriber")
	}
	close(block)
	waitFor(t, "all runs to finish", func() bool {
		st := s.Stats()
		return st.Done == 200
	})
	if d := sub.Dropped(); d == 0 {
		t.Error("slow subscriber was never marked lagging (dropped == 0)")
	}
}

func TestDrainPublishesCancelledEvents(t *testing.T) {
	hub := stream.NewHub(stream.Config{SubBuffer: 256})
	defer hub.Close()
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 16, Events: hub})

	block := make(chan struct{})
	// One run occupies the single worker; the rest stay queued.
	if _, err := s.Submit(SubmitRequest{Payload: func(interrupt <-chan struct{}) (*core.RunResult, error) {
		close(block)
		<-interrupt
		return &core.RunResult{Strategy: "noop"}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-block
	queued := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		st, err := s.Submit(SubmitRequest{Payload: func(<-chan struct{}) (*core.RunResult, error) {
			return &core.RunResult{Strategy: "noop"}, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st.ID)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range queued {
		// Subscribe replays the run's history into the channel's buffer.
		sub := hub.Subscribe(id, 0)
		hub.Unsubscribe(sub)
		cancelled := false
		for e := range sub.C {
			if e.Type == stream.TypeState && e.State == string(StateCancelled) {
				cancelled = true
			}
		}
		if !cancelled {
			t.Errorf("no cancelled event for backlog run %s", id)
		}
	}
}
