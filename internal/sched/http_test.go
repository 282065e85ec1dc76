package sched

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHandlerLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, QueueLimit: 8})
	build := func(tenant string, priority int, v url.Values) (RunSpec, error) {
		if v.Get("trace") != "tiny" {
			return RunSpec{}, fmt.Errorf("unknown trace %q", v.Get("trace"))
		}
		return testSpec(t, ""), nil
	}
	srv := httptest.NewServer(Handler(s, build))
	defer srv.Close()
	defer s.Close()

	// Submit is POST-only and rejects unknown specs.
	resp, err := http.Get(srv.URL + "/sched/submit?trace=tiny")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET submit returned %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/sched/submit?trace=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec returned %d, want 400", resp.StatusCode)
	}

	// A good submission is accepted and observable until done.
	resp, err = http.Post(srv.URL+"/sched/submit?trace=tiny&tenant=acme&priority=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", resp.StatusCode)
	}
	var st RunStatus
	decodeJSON(t, resp, &st)
	if st.ID == "" || st.Tenant != "acme" || st.Priority != 2 {
		t.Fatalf("submit echoed %+v", st)
	}

	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/sched/status?id=" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var final RunStatus
	decodeJSON(t, resp, &final)
	if final.State != StateDone {
		t.Fatalf("status reports %q (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Steps == 0 {
		t.Fatal("done status carries no result profile")
	}

	resp, err = http.Get(srv.URL + "/sched/status?id=run-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id returned %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/sched/runs")
	if err != nil {
		t.Fatal(err)
	}
	var runs []RunStatus
	decodeJSON(t, resp, &runs)
	if len(runs) != 1 || runs[0].ID != st.ID {
		t.Fatalf("runs listing %+v", runs)
	}

	resp, err = http.Get(srv.URL + "/sched/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	decodeJSON(t, resp, &stats)
	if stats.Workers != 2 || stats.Submitted != 1 || stats.Done != 1 {
		t.Fatalf("stats %+v", stats)
	}

	// Drain over HTTP, then further submissions see 503.
	resp, err = http.Get(srv.URL + "/sched/drain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET drain returned %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/sched/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var drained Stats
	decodeJSON(t, resp, &drained)
	if !drained.Draining {
		t.Fatalf("drain response %+v not draining", drained)
	}
	resp, err = http.Post(srv.URL+"/sched/submit?trace=tiny", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining returned %d, want 503", resp.StatusCode)
	}
}

func TestHandlerBackpressureStatus(t *testing.T) {
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 1})
	defer s.Close()
	gate := make(chan struct{})
	defer close(gate)
	// Park the worker and fill the queue through the scheduler directly,
	// then confirm the HTTP surface translates saturation to 429.
	if _, err := s.Submit(SubmitRequest{Tenant: "t", Payload: blockingRun(gate)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the blocker to start", func() bool { return s.Stats().Active == 1 })
	if _, err := s.Submit(SubmitRequest{Tenant: "t", Payload: blockingRun(gate)}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(s, func(string, int, url.Values) (RunSpec, error) {
		return testSpec(t, ""), nil
	}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/sched/submit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHandlerNilBuilder(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/sched/submit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("nil builder returned %d, want 501", resp.StatusCode)
	}
}
