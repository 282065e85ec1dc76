package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/sched"
	"github.com/pragma-grid/pragma/internal/stream"
)

// tinyScenario is a half-millisecond replay: 16x8x8, depth 2, four
// snapshots, the shape bench/e2e's fleet_tiny workload submits.
func tinyScenario(i int) string {
	return fmt.Sprintf("name=tiny-%03d;dims=16x8x8;depth=2;seed=%d;III:4", i, 1000+i)
}

// postSubmit posts one /sched/submit and returns the admitted run's ID.
func postSubmit(t *testing.T, base, query string) string {
	t.Helper()
	resp, err := http.Post(base+"/sched/submit?"+query, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("submit %q: status %d", query, resp.StatusCode)
	}
	var st RunStatus
	decodeJSON(t, resp, &st)
	return st.ID
}

// TestOneRequestOneResult: the same query string gives the same RunResult
// through the single-node handler, through the fleet handler (one worker)
// and as a direct core.Run of the materialized spec. Before the single
// submit path the scenario rows differed: pragma-node's scheduler replayed
// scenarios with the uniform work model.
func TestOneRequestOneResult(t *testing.T) {
	mat := DefaultMaterializer()
	s := sched.New(sched.Config{Workers: 1})
	defer s.Close()
	single := httptest.NewServer(sched.Handler(s, SpecBuilder("", mat)))
	defer single.Close()

	center, addr := startCenter(t)
	r := testRouter(t, center, mat, nil)
	w, cl := startWorker(t, addr, "w0", mat, 1)
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)
	fleet := httptest.NewServer(Handler(r, ""))
	defer fleet.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, query := range []string{
		"trace=small&strategy=G-MISP%2BSP&procs=4",
		"procs=4&scenario=" + url.QueryEscape(tinyScenario(0)),
		"procs=4&seed=99&scenario=" + url.QueryEscape("name=mix;dims=16x8x8;depth=2;V:3,II:3"),
	} {
		v, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := SpecFromValues(v)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := mat(ws)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(spec.Trace, spec.Strategy, core.RunConfig{
			Machine: spec.Machine, NProcs: spec.NProcs, Cost: spec.Cost, WorkModel: spec.WorkModel,
		})
		if err != nil {
			t.Fatal(err)
		}

		viaSingle, err := s.Wait(ctx, postSubmit(t, single.URL, query))
		if err != nil {
			t.Fatal(err)
		}
		viaFleet, err := r.life.Wait(ctx, postSubmit(t, fleet.URL, query))
		if err != nil {
			t.Fatal(err)
		}
		if viaFleet.Placement != "w0" {
			t.Errorf("%s: fleet run placed %q, want w0", query, viaFleet.Placement)
		}
		sameRunResult(t, query+" via sched.Handler", viaSingle.Result, want)
		sameRunResult(t, query+" via fleet.Handler", viaFleet.Result, want)
	}
}

// tinyFleet is a router with one 1-slot worker beating every few
// milliseconds over loopback TCP, an event hub, and the HTTP surface.
func tinyFleet(t *testing.T) (*Router, *stream.Hub, string) {
	t.Helper()
	hub := stream.NewHub(stream.Config{SubBuffer: 1 << 12})
	t.Cleanup(hub.Close)
	mat := DefaultMaterializer()
	center, addr := startCenter(t)
	r := testRouter(t, center, mat, func(c *Config) {
		c.Events = hub
		c.HeartbeatTimeout = time.Minute // liveness is not the subject; a loaded host must not evict
	})
	cl, err := agents.Dial(addr, agents.WithErrorHandler(func(error) {}))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Port: cl, ID: "w0", Slots: 1, HeartbeatEvery: 2 * time.Millisecond, Materialize: mat})
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)
	srv := httptest.NewServer(Handler(r, ""))
	t.Cleanup(srv.Close)
	return r, hub, srv.URL
}

// TestRunningBeforeDone: a half-millisecond run's result used to overtake
// the dispatch's ack, leaving the run without a running event and with
// Started after Finished. The lifecycle now makes a run running before its
// attempt exists.
func TestRunningBeforeDone(t *testing.T) {
	r, hub, base := tinyFleet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < 200; i++ {
		id := postSubmit(t, base, "procs=4&scenario="+url.QueryEscape(tinyScenario(i%8)))
		st, err := r.life.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != sched.StateDone {
			t.Fatalf("%s ended %s: %s", id, st.State, st.Error)
		}
		if st.Started.Before(st.Submitted) || st.Finished.Before(st.Started) {
			t.Fatalf("%s: submitted %v, started %v, finished %v are out of order", id, st.Submitted, st.Started, st.Finished)
		}
		// Subscribe replays the run's history into the channel's buffer.
		sub := hub.Subscribe(id, 0)
		hub.Unsubscribe(sub)
		var states []string
		for e := range sub.C {
			if e.Type == stream.TypeState {
				states = append(states, e.State)
			}
		}
		if want := []string{"queued", "running", "done"}; !reflect.DeepEqual(states, want) {
			t.Fatalf("%s: state events %v, want %v", id, states, want)
		}
	}
}

// TestStaleHeartbeatNoFallback: a heartbeat that caught the one slot busy
// used to make the idle worker look full until the next beat, and the
// router then ran work itself. Slots are now judged by the router's own
// in-flight count.
func TestStaleHeartbeatNoFallback(t *testing.T) {
	r, _, base := tinyFleet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < 300; i++ {
		id := postSubmit(t, base, "procs=4&scenario="+url.QueryEscape(tinyScenario(i%8)))
		if st, err := r.life.Wait(ctx, id); err != nil || st.State != sched.StateDone || st.Placement != "w0" {
			t.Fatalf("%s: %+v, %v", id, st, err)
		}
	}
	if st := r.Stats(); st.LocalFallbacks != 0 || st.Done != 300 {
		t.Fatalf("stats %+v, want 300 done and no local fallback", st)
	}
}

// TestParseSubmitCheckpointRule: with a checkpoint root configured a client
// can only name directories under it.
func TestParseSubmitCheckpointRule(t *testing.T) {
	root := t.TempDir()
	for _, c := range []struct {
		tenant, query string
		want          string // the resolved directory; "" = rejected
	}{
		{"acme", "checkpoint=runs/a", filepath.Join(root, "runs", "a")},
		{"acme", "checkpoint=a/../b", filepath.Join(root, "b")},
		{"acme", "checkpoint=/tmp/x", ""},
		{"acme", "checkpoint=..", ""},
		{"acme", "checkpoint=a/../../b", ""},
		{"acme", "name=run1", filepath.Join(root, "acme", "run1")},
		{"", "name=run1", filepath.Join(root, "_default", "run1")},
		{"acme", "name=..", ""},
		{"acme", "name=a/b", ""},
		{"../acme", "name=run1", ""},
		{"a/b", "name=run1", ""},
	} {
		v, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := ParseSubmit(c.tenant, v, root)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("tenant %q %s: accepted as %q, want an error", c.tenant, c.query, ws.CheckpointDir)
		case c.want != "" && (err != nil || ws.CheckpointDir != c.want):
			t.Errorf("tenant %q %s: %q, %v; want %q", c.tenant, c.query, ws.CheckpointDir, err, c.want)
		}
	}
	// Without a root the parameter is taken as given, and a programmatic
	// WireSpec is never restricted.
	ws, err := ParseSubmit("acme", url.Values{"checkpoint": {"/tmp/x"}}, "")
	if err != nil || ws.CheckpointDir != "/tmp/x" {
		t.Errorf("no root: %q, %v", ws.CheckpointDir, err)
	}

	// Both handlers answer 400.
	s := sched.New(sched.Config{Workers: 1})
	defer s.Close()
	center, _ := startCenter(t)
	r := testRouter(t, center, testMaterializer(t), nil)
	for name, h := range map[string]http.Handler{
		"sched": sched.Handler(s, SpecBuilder(root, testMaterializer(t))),
		"fleet": Handler(r, root),
	} {
		srv := httptest.NewServer(h)
		resp, err := http.Post(srv.URL+"/sched/submit?tenant=acme&checkpoint=/tmp/x", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s handler: absolute checkpoint= answered %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestFleetWeightedFairness is what one ledger buys: through a router with
// a single 1-slot worker, tenants at weights 1 and 4 with equal backlogs
// complete work 1:4 while both are backlogged (±20%, the bound
// TestWeightedFairnessRatios allows on one node).
func TestFleetWeightedFairness(t *testing.T) {
	mat := testMaterializer(t)
	center, addr := startCenter(t)
	r := testRouter(t, center, mat, func(c *Config) { c.HeartbeatTimeout = time.Minute })
	w, cl := startWorker(t, addr, "w0", mat, 1)
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)

	// Hold the slot so the whole backlog is queued before the first
	// weighted dispatch decision.
	if _, err := r.Submit(SubmitRequest{Tenant: "gate", Spec: WireSpec{RegridDelayMS: 20}}); err != nil {
		t.Fatal(err)
	}
	weights := map[string]float64{"A": 1, "B": 4}
	var ids []string
	for i := 0; i < 20; i++ {
		for _, tenant := range []string{"A", "B"} {
			st, err := r.Submit(SubmitRequest{Tenant: tenant, Spec: WireSpec{Weight: weights[tenant]}})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	finals := make([]RunStatus, len(ids))
	for i, id := range ids {
		st, err := r.life.Wait(ctx, id)
		if err != nil || st.State != sched.StateDone {
			t.Fatalf("%s: %+v, %v", id, st, err)
		}
		finals[i] = st
	}
	// The first 20 completions fall inside the window in which both
	// tenants are still backlogged; weights 1:4 split them 4:16.
	sort.Slice(finals, func(i, j int) bool { return finals[i].Finished.Before(finals[j].Finished) })
	counts := map[string]float64{}
	for _, st := range finals[:20] {
		counts[st.Tenant]++
	}
	for tenant, weight := range weights {
		want := 20 * weight / 5
		if got := counts[tenant]; got < want*0.8 || got > want*1.2 {
			t.Errorf("tenant %s (weight %v): %v of the first 20 completions, want %v ±20%% (%v)", tenant, weight, got, want, counts)
		}
	}
	if st := r.Stats(); st.LocalFallbacks != 0 {
		t.Errorf("stats %+v, want no local fallback", st)
	}
}

// TestRefusedSpecSparesBreaker: a spec the worker cannot materialize is
// the submitter's fault, and every fleet member shares the materializer.
// The run fails at once, with no retry, no local fallback and no charge
// against the worker's breaker, so the next run is still placed on it.
// The worker beats once a minute: its re-hello would close the breaker.
func TestRefusedSpecSparesBreaker(t *testing.T) {
	mat := DefaultMaterializer()
	center, addr := startCenter(t)
	r := testRouter(t, center, mat, func(c *Config) { c.HeartbeatTimeout = time.Hour })
	cl, err := agents.Dial(addr, agents.WithErrorHandler(func(error) {}))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Port: cl, ID: "w0", Slots: 1, HeartbeatEvery: time.Minute, Materialize: mat})
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	bad, err := r.Submit(SubmitRequest{Tenant: "t", Spec: WireSpec{Trace: "bogus"}})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := r.life.Wait(ctx, bad.ID); err != nil || st.State != sched.StateFailed {
		t.Fatalf("bogus trace: %+v, %v; want failed", st, err)
	}
	if ws := r.Workers(); len(ws) != 1 || ws[0].BreakerOpen {
		t.Fatalf("workers %+v, want w0 with its breaker closed", ws)
	}
	good, err := r.Submit(SubmitRequest{Tenant: "t", Spec: WireSpec{Scenario: tinyScenario(0), Procs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := r.life.Wait(ctx, good.ID); err != nil || st.State != sched.StateDone || st.Placement != "w0" {
		t.Fatalf("valid run after the refusal: %+v, %v; want done on w0", st, err)
	}
	if st := r.Stats(); st.LocalFallbacks != 0 {
		t.Fatalf("stats %+v, want no local fallback", st)
	}
}
