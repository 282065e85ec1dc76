package sched

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/stream"
)

func TestRunsPagination(t *testing.T) {
	s := newTestScheduler(Config{Workers: 2, QueueLimit: 64})
	defer s.Close()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()

	ids := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		st, err := s.Submit(SubmitRequest{Payload: func(<-chan struct{}) (*core.RunResult, error) {
			return &core.RunResult{Strategy: "noop"}, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitFor(t, "runs to finish", func() bool { return s.Stats().Done == 10 })

	page := func(query string) []RunStatus {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sched/runs" + query)
		if err != nil {
			t.Fatal(err)
		}
		var out []RunStatus
		decodeJSON(t, resp, &out)
		return out
	}

	if got := page(""); len(got) != 10 {
		t.Fatalf("default page returned %d, want all 10", len(got))
	}
	first := page("?limit=4")
	if len(first) != 4 || first[0].ID != ids[0] {
		t.Fatalf("limit=4 page: %d records starting %q", len(first), first[0].ID)
	}
	second := page("?limit=4&after=" + first[len(first)-1].ID)
	if len(second) != 4 || second[0].ID != ids[4] {
		t.Fatalf("second page: %d records starting %q, want %q", len(second), second[0].ID, ids[4])
	}
	third := page("?limit=4&after=" + second[len(second)-1].ID)
	if len(third) != 2 || third[0].ID != ids[8] {
		t.Fatalf("third page: %d records starting %q, want %q", len(third), third[0].ID, ids[8])
	}
	if got := page("?after=" + ids[9]); len(got) != 0 {
		t.Fatalf("page past the end returned %d records", len(got))
	}

	// Bad limit is a JSON 400.
	resp, err := http.Get(srv.URL + "/sched/runs?limit=zero")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("bad limit Content-Type %q", ct)
	}
	resp.Body.Close()
}

func TestUnknownSchedPathIsJSON404(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sched/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var body map[string]string
	decodeJSON(t, resp, &body)
	if body["error"] == "" {
		t.Error("404 body carries no error field")
	}
}

func TestSaturated429CarriesParseableRetryAfter(t *testing.T) {
	// One worker wedged + queue of 1 ⇒ the third submission must be
	// rejected 429 with a parseable Retry-After, and the accept loop must
	// keep answering other endpoints instantly while saturated.
	s := newTestScheduler(Config{Workers: 1, QueueLimit: 1})
	defer s.Close()
	block := make(chan struct{})
	defer close(block)
	wedge := func(<-chan struct{}) (*core.RunResult, error) {
		<-block
		return &core.RunResult{Strategy: "noop"}, nil
	}
	if _, err := s.Submit(SubmitRequest{Payload: wedge}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "wedged run to occupy the worker", func() bool {
		return s.Stats().Active == 1
	})
	if _, err := s.Submit(SubmitRequest{Payload: wedge}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s, func(tenant string, priority int, v url.Values) (RunSpec, error) {
		return testSpec(t, ""), nil
	}))
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/sched/submit", "", nil)
			if err != nil {
				t.Errorf("saturated submit: %v", err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("saturated submit: status %d, want 429", resp.StatusCode)
				return
			}
			ra := resp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs <= 0 {
				t.Errorf("Retry-After %q not a positive integer", ra)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("429 Content-Type %q", ct)
			}
		}()
	}
	// While the pool is wedged and submits flood in, reads must answer
	// promptly: a blocked accept loop would time these out.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			resp, err := client.Get(srv.URL + "/sched/stats")
			if err != nil {
				t.Errorf("stats during saturation: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("stats during saturation: status %d", resp.StatusCode)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("saturated scheduler blocked the accept loop")
	}
}

func TestHandlerEventsEndToEnd(t *testing.T) {
	hub := stream.NewHub(stream.Config{})
	defer hub.Close()
	s := New(Config{Workers: 2, QueueLimit: 16, Events: hub})
	defer s.Close()
	srv := httptest.NewServer(Handler(s, nil))
	defer srv.Close()

	st, err := s.Submit(SubmitRequest{Tenant: "acme", Spec: testSpec(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/sched/events?run=" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	// Tail the stream until the terminal state arrives; the full
	// lifecycle must be visible without a single /sched/status poll.
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if strings.Contains(line, `"type":"state"`) {
			for _, state := range []string{"queued", "running", "done"} {
				if strings.Contains(line, `"state":"`+state+`"`) {
					seen[state] = true
				}
			}
		}
		if seen["done"] {
			break
		}
	}
	for _, state := range []string{"queued", "running", "done"} {
		if !seen[state] {
			t.Errorf("SSE never delivered state %q", state)
		}
	}
	// Without an events hub the endpoint is a JSON 404, not a hang.
	plain := New(Config{Workers: 1})
	defer plain.Close()
	psrv := httptest.NewServer(Handler(plain, nil))
	defer psrv.Close()
	presp, err := http.Get(psrv.URL + "/sched/events")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Errorf("events without hub: status %d, want 404", presp.StatusCode)
	}
}
