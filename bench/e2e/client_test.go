package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
)

// fakeSched serves just enough of /sched/submit and /sched/status for the
// load generator: every run it admits is done at once, with the result
// the test chose.
type fakeSched struct {
	mu     sync.Mutex
	next   int
	result *core.RunResult
}

func (f *fakeSched) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	switch r.URL.Path {
	case "/sched/submit":
		f.next++
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(statusDoc{ID: fmt.Sprintf("run-%06d", f.next), State: "queued", Submitted: now})
	case "/sched/status":
		json.NewEncoder(w).Encode(statusDoc{
			ID: r.URL.Query().Get("id"), State: "done", Result: f.result,
			Submitted: now.Add(-3 * time.Millisecond), Started: now.Add(-2 * time.Millisecond), Finished: now.Add(-time.Millisecond),
		})
	default:
		http.NotFound(w, r)
	}
}

func fakeService(t *testing.T, served, reference *core.RunResult) *service {
	t.Helper()
	srv := httptest.NewServer(&fakeSched{result: served})
	t.Cleanup(srv.Close)
	return &service{
		name: "fake", window: 2, base: srv.URL, client: srv.Client(),
		queries: []string{"scenario=a", "scenario=b"},
		refs:    []*core.RunResult{reference, reference},
		events:  make(chan arrival, 16),
	}
}

func done(run string) arrival {
	return arrival{runEvent: runEvent{Run: run, Type: "state", State: "done"}, at: time.Now()}
}

func TestClientSettlesOnDoneEvents(t *testing.T) {
	res := &core.RunResult{Strategy: "adaptive", TotalTime: 2.5}
	s := fakeService(t, res, res)
	s.events <- arrival{runEvent: runEvent{Run: "run-000001", Type: "state", State: "running"}}
	s.events <- arrival{runEvent: runEvent{Run: "run-000001", Type: "regrid"}}
	s.events <- done("run-000002")
	s.events <- done("run-000001")
	ph, err := s.drive(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.runs != 2 || ph.failed != 0 || ph.simSum != 5 {
		t.Errorf("runs %d failed %d sim %v, want 2, 0, 5; notes %v", ph.runs, ph.failed, ph.simSum, ph.notes)
	}
	if len(ph.runMS) != 2 || len(ph.opMS) != 2 || len(ph.samples["done_lag"]) != 2 || len(ph.samples["submit"]) != 2 {
		t.Errorf("samples: run %d op %d lag %d submit %d, want 2 each",
			len(ph.runMS), len(ph.opMS), len(ph.samples["done_lag"]), len(ph.samples["submit"]))
	}
	if q := median(ph.samples["queue"]); q < 0.9 || q > 1.1 {
		t.Errorf("queue wait from the status stamps = %v ms, want 1", q)
	}
}

// A "lagging" frame means events were lost: the client must find the
// finished runs by asking /sched/status, and the gap must count against
// the pass.
func TestClientResyncsWhenLagging(t *testing.T) {
	res := &core.RunResult{Strategy: "adaptive", TotalTime: 2.5}
	s := fakeService(t, res, res)
	s.events <- arrival{runEvent: runEvent{Dropped: 3, lagging: true}}
	ph, err := s.drive(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.runs != 2 {
		t.Errorf("%d runs settled through /sched/status, want 2", ph.runs)
	}
	if got := sum(ph.samples["dropped"]); got != 3 {
		t.Errorf("stream.dropped = %v, want 3", got)
	}
	if ph.failed != 1 {
		t.Errorf("failed = %d, want 1 (the gap itself); notes %v", ph.failed, ph.notes)
	}
	if len(ph.samples["done_lag"]) != 0 {
		t.Error("a re-synced run has no event to take a lag from")
	}
}

func TestClientCountsWrongResults(t *testing.T) {
	s := fakeService(t, &core.RunResult{TotalTime: 2.5}, &core.RunResult{TotalTime: 2.4})
	s.events <- done("run-000001")
	s.events <- done("run-000002")
	ph, err := s.drive(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.runs != 2 || ph.failed != 2 {
		t.Errorf("runs %d failed %d, want 2 and 2", ph.runs, ph.failed)
	}
}
