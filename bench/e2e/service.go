package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/fleet"
	"github.com/pragma-grid/pragma/internal/scenario"
	"github.com/pragma-grid/pragma/internal/sched"
	"github.com/pragma-grid/pragma/internal/stream"
)

const (
	// Sizes of the two scenario sets. A placement seed moves a scenario's
	// simulated run-time by several percent; these many average that down
	// to the two percent or so sim_runtime_s moves by from seed to seed.
	corpusSize  = 48
	corpusProcs = 16
	tinySize    = 128
	tinyProcs   = 4
	// fleetWorkers one-slot workers and a window of the same size: every
	// dispatch finds a free slot, so nothing queues behind a run and the
	// control plane's own cost is what a run's latency is made of.
	fleetWorkers = 2
	// eventBacklog is how many decoded SSE frames may wait for the load
	// generator. A corpus run emits about twenty; the generator is never
	// more than a window of runs behind.
	eventBacklog = 1 << 14
	// windowLength is how long a service phase's windows are: long enough
	// for the host's steal counter (clock ticks) to resolve one percent.
	windowLength = time.Second
	// quiet is far longer than any run here takes; an event stream silent
	// for that long with runs outstanding means one was lost.
	quiet = 60 * time.Second
)

// service is the two workloads that go through the serving stack: an
// HTTP client on loopback posts scenario strings to /sched/submit, learns
// of completions from one /sched/events stream, fetches each finished run
// with /sched/status and checks its result. sched_corpus serves them from
// one sched.Scheduler; fleet_tiny from a fleet.Router that dispatches to
// two fleet.Workers dialled to its agents.Center over loopback TCP.
type service struct {
	name    string
	fleet   bool
	window  int
	queries []string
	refs    []*core.RunResult

	mat       fleet.Materializer
	hook      atomic.Pointer[tracer] // the traced pass's tracer, nil otherwise
	materials atomic.Int64           // materializations since the hook was set
	genMS     float64                // mean first materialization (parse + generate)

	hub     *stream.Hub
	sched   *sched.Scheduler
	router  *fleet.Router
	workers []*fleet.Worker
	links   []*agents.Client
	center  *agents.Center
	brokers net.Listener
	addr    string // the center's TCP address
	server  *http.Server
	base    string

	client    *http.Client
	events    chan arrival
	streamEnd context.CancelFunc
	streaming sync.WaitGroup
	submitted int
}

// arrival is one decoded /sched/events frame and when the client read it.
type arrival struct {
	runEvent
	at  time.Time
	err error
}

// statusDoc is the part of a /sched/status document the client reads;
// sched.RunStatus and fleet.RunStatus share these fields.
type statusDoc struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Placement string          `json:"placement"`
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started"`
	Finished  time.Time       `json:"finished"`
	Error     string          `json:"error"`
	Result    *core.RunResult `json:"result"`
}

func setupService(name string, seed int64, viaFleet bool) (bench, error) {
	s := &service{name: name, fleet: viaFleet, mat: fleet.DefaultMaterializer()}
	var scenarios []string
	if viaFleet {
		scenarios = tinyScenarios(seed, tinySize)
		s.queries = submitQueries(scenarios, tinyProcs)
		s.window = fleetWorkers
	} else {
		scenarios = corpusScenarios(seed, corpusSize)
		s.queries = submitQueries(scenarios, corpusProcs)
		s.window = 2 * busyWorkers()
	}
	if err := s.references(); err != nil {
		return nil, err
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// references materializes every query once — which generates its trace
// into the materializer's cache, as the first submission of a scenario
// does in production — and replays it directly for the result the served
// run must report. Results are passed through JSON as the served ones are.
func (s *service) references() error {
	var gen time.Duration
	for _, q := range s.queries {
		v, err := url.ParseQuery(q)
		if err != nil {
			return err
		}
		ws, err := fleet.SpecFromValues(v)
		if err != nil {
			return err
		}
		start := time.Now()
		spec, err := s.mat(ws)
		if err != nil {
			return err
		}
		gen += time.Since(start)
		res, err := core.Run(spec.Trace, spec.Strategy, core.RunConfig{
			Machine: spec.Machine, NProcs: spec.NProcs, Cost: spec.Cost, WorkModel: spec.WorkModel,
		})
		if err != nil {
			return err
		}
		doc, err := json.Marshal(res)
		if err != nil {
			return err
		}
		ref := new(core.RunResult)
		if err := json.Unmarshal(doc, ref); err != nil {
			return err
		}
		s.refs = append(s.refs, ref)
	}
	s.genMS = ms(gen) / float64(len(s.queries))
	return nil
}

// materialize is the harness's Materializer: the standard one, with the
// traced pass's probe put in place of the strategy it built.
func (s *service) materialize(ws fleet.WireSpec) (sched.RunSpec, error) {
	t := s.hook.Load()
	start := time.Now()
	spec, err := s.mat(ws)
	if err != nil || t == nil {
		return spec, err
	}
	n := s.materials.Add(1)
	run := fmt.Sprintf("%s-m%06d", s.name, n)
	t.rec.add(run, "materialize", 0, start, time.Now())
	if n <= int64(len(s.queries)) {
		// One pass of inputs is enough to time the layers on again.
		t.mu.Lock()
		t.capture[run] = true
		t.mu.Unlock()
	}
	spec.Strategy = newProbe(t, run, 0)
	return spec, nil
}

func (s *service) start() error {
	s.hub = stream.NewHub(stream.Config{SubBuffer: eventBacklog})
	var handler http.Handler
	if s.fleet {
		if err := s.startFleet(); err != nil {
			return err
		}
		handler = fleet.Handler(s.router, "")
	} else {
		s.sched = sched.New(sched.Config{Workers: busyWorkers(), Events: s.hub})
		handler = sched.Handler(s.sched, func(tenant string, priority int, v url.Values) (sched.RunSpec, error) {
			ws, err := fleet.SpecFromValues(v)
			if err != nil {
				return sched.RunSpec{}, err
			}
			return s.materialize(ws)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.server = &http.Server{Handler: handler}
	go s.server.Serve(ln) // returns when close shuts the server down

	// One keep-alive connection carries every submit and status request.
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return s.subscribe()
}

func (s *service) startFleet() error {
	// A worker's occupancy as of its last heartbeat outlives the run it
	// counted: with half-millisecond runs and one slot, a one-second beat
	// makes an idle worker look full for a second, and the router then
	// runs work itself (local fallback). Pacing the beats out of the
	// measurement leaves placement to the router's own in-flight counts.
	const never = 24 * time.Hour
	s.center = agents.NewCenter()
	var err error
	if s.brokers, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	s.addr = s.brokers.Addr().String()
	go s.center.Serve(s.brokers) // returns when close closes the listener
	s.router, err = fleet.NewRouter(fleet.Config{
		Port: s.center, Events: s.hub, Materialize: s.materialize, HeartbeatTimeout: 2 * never,
	})
	if err != nil {
		return err
	}
	s.router.AttachCenter(s.center)
	for i := 0; i < fleetWorkers; i++ {
		link, err := agents.Dial(s.addr)
		if err != nil {
			return err
		}
		s.links = append(s.links, link)
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Port: link, ID: fmt.Sprintf("w%d", i), Slots: 1, HeartbeatEvery: never, Materialize: s.materialize,
		})
		if err != nil {
			return err
		}
		s.workers = append(s.workers, w)
	}
	for deadline := time.Now().Add(10 * time.Second); s.router.Stats().Reachable < fleetWorkers; {
		if time.Now().After(deadline) {
			return fmt.Errorf("router sees %d of %d workers", s.router.Stats().Reachable, fleetWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// subscribe opens the one /sched/events stream and starts the goroutine
// that decodes its frames for the load generator.
func (s *service) subscribe() error {
	ctx, cancel := context.WithCancel(context.Background())
	s.streamEnd = cancel
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/sched/events", nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET /sched/events: %s", resp.Status)
	}
	s.events = make(chan arrival, eventBacklog)
	s.streaming.Add(1)
	go func() {
		defer s.streaming.Done()
		defer resp.Body.Close()
		defer close(s.events)
		r := bufio.NewReader(resp.Body)
		for {
			f, err := readFrame(r)
			at := time.Now()
			if err != nil {
				if ctx.Err() == nil {
					s.events <- arrival{err: fmt.Errorf("event stream: %w", err)}
				}
				return
			}
			e, err := decodeFrame(f)
			select {
			case s.events <- arrival{runEvent: e, at: at, err: err}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return nil
}

func (s *service) close() error {
	if s.streamEnd != nil {
		s.streamEnd()
		s.streaming.Wait()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(s.server.Shutdown(ctx))
		cancel()
	}
	if s.sched != nil {
		keep(s.sched.Close())
	}
	if s.router != nil {
		keep(s.router.Close())
	}
	for _, w := range s.workers {
		keep(w.Close())
	}
	for _, l := range s.links {
		keep(l.Close())
	}
	if s.brokers != nil {
		keep(s.brokers.Close())
	}
	if s.hub != nil {
		s.hub.Close()
	}
	return first
}

func (s *service) warmPasses() int {
	if s.fleet {
		return 8 // 1024 runs
	}
	return 1
}

// inflight is a submitted run the generator is waiting on.
type inflight struct {
	query int
	start time.Time
	span  int
}

// drive keeps window runs outstanding from one goroutine: submit until
// the window is full, then block on the event stream; a "done" event is
// followed at once by the status fetch and the check of its result.
func (s *service) drive(minPasses int, d time.Duration, t *tracer) (*phase, error) {
	s.materials.Store(0)
	s.hook.Store(t)
	defer s.hook.Store(nil)
	n := len(s.queries)
	ph := newPhase(s.window)
	open := make(map[string]*inflight, s.window)
	sent := 0
	more := func() bool {
		return sent < minPasses*n || sent%n != 0 || time.Since(ph.start) < d
	}
	silence := time.NewTimer(quiet)
	defer silence.Stop()
	for {
		for len(open) < s.window && more() {
			id, run, err := s.submit(ph, t, s.submitted%n)
			if err != nil {
				return nil, err
			}
			s.submitted++
			sent++
			open[id] = run
		}
		if len(open) == 0 {
			break
		}
		var ev arrival
		silence.Reset(quiet)
		select {
		case ev = <-s.events:
		case <-silence.C:
			return nil, fmt.Errorf("no event for %v with %d runs outstanding", quiet, len(open))
		}
		if ev.err != nil {
			return nil, ev.err
		}
		ph.sample("events", 1)
		switch {
		case ev.lagging:
			// The stream has a gap: whatever it hid is found by asking.
			ph.sample("dropped", float64(ev.Dropped))
			for id, run := range open {
				ended, err := s.settle(ph, t, id, run, time.Time{})
				if err != nil {
					return nil, err
				}
				if ended {
					delete(open, id)
				}
			}
		case ev.Type == stream.TypeState && open[ev.Run] != nil && ev.State != "queued" && ev.State != "running":
			if _, err := s.settle(ph, t, ev.Run, open[ev.Run], ev.at); err != nil {
				return nil, err
			}
			delete(open, ev.Run)
		}
		if time.Since(ph.openAt) >= windowLength {
			ph.cut()
		}
	}
	ph.finish()
	s.invariants(ph)
	return ph, nil
}

// submit posts one query and returns the admitted run and its ID.
func (s *service) submit(ph *phase, t *tracer, query int) (string, *inflight, error) {
	start := time.Now()
	resp, err := s.client.Post(s.base+"/sched/submit?"+s.queries[query], "", nil)
	if err != nil {
		return "", nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		// The closed loop never has more than a window outstanding, so a
		// refusal is the system's fault, not backpressure to honour.
		return "", nil, fmt.Errorf("submit %d: %s: %s", query, resp.Status, body)
	}
	var st statusDoc
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		return "", nil, fmt.Errorf("submit %d: bad admission document %q: %v", query, body, err)
	}
	ph.sample("submit", ms(end.Sub(start)))
	run := &inflight{query: query, start: start}
	if t != nil {
		run.span = t.rec.reserve(st.ID, spanRun, 0, start)
		t.rec.add(st.ID, spanSubmit, run.span, start, end)
	}
	return st.ID, run, nil
}

// settle fetches a run's status and, when the run has ended, verifies and
// accounts it. seen is when the stream delivered its terminal event; zero
// when settle is re-syncing after a gap, in which case a run still in
// progress is left alone and settle reports false.
func (s *service) settle(ph *phase, t *tracer, id string, run *inflight, seen time.Time) (ended bool, err error) {
	start := time.Now()
	resp, err := s.client.Get(s.base + "/sched/status?id=" + id)
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	fetched := time.Now()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %s: %s: %s", id, resp.Status, body)
	}
	var st statusDoc
	if err := json.Unmarshal(body, &st); err != nil {
		return false, fmt.Errorf("status %s: %w", id, err)
	}
	if seen.IsZero() && (st.State == "queued" || st.State == "running" || st.State == "preempted") {
		return false, nil
	}
	ph.runs++
	switch {
	case st.State != "done":
		ph.failed++
		ph.note("%s ended %s: %s", id, st.State, st.Error)
	case !reflect.DeepEqual(st.Result, s.refs[run.query]):
		ph.failed++
		ph.note("%s: result differs from the direct replay of query %d", id, run.query)
	default:
		ph.simSum += st.Result.TotalTime
	}
	end := time.Now()
	ph.runMS = append(ph.runMS, ms(end.Sub(run.start)))
	ph.opMS = append(ph.opMS, ms(fetched.Sub(start)))
	ph.sample("status_bytes", float64(len(body)))
	// The router stamps Started when the dispatch's ack is processed, and a
	// half-millisecond run's result can overtake its ack: such a run has no
	// usable Started yet and is left out of the two samples that need it.
	started := !st.Started.IsZero() && !st.Started.After(st.Finished)
	if started {
		ph.sample("queue", ms(st.Started.Sub(st.Submitted)))
		ph.sample("exec", ms(st.Finished.Sub(st.Started)))
	}
	if !seen.IsZero() {
		ph.sample("done_lag", ms(seen.Sub(st.Finished)))
	}
	if st.Placement != "" {
		ph.sample("placed:"+st.Placement, 1)
	}
	if t != nil {
		if started {
			t.rec.add(id, spanQueue, run.span, st.Submitted, st.Started)
			t.rec.add(id, spanExec, run.span, st.Started, st.Finished)
		}
		t.rec.add(id, spanStatus, run.span, start, fetched)
		t.rec.finish(run.span, end)
	}
	return true, nil
}

// invariants turns the conditions a correct closed-loop pass leaves true
// into failed operations when they are not.
func (s *service) invariants(ph *phase) {
	if dropped := sum(ph.samples["dropped"]); dropped > 0 {
		ph.failed++
		ph.note("event stream dropped %v events", dropped)
	}
	if s.sched != nil {
		if st := s.sched.Stats(); st.Failed+st.Drained+st.Cancelled > 0 {
			ph.failed++
			ph.note("scheduler stats %+v", st)
		}
	}
	if s.router != nil {
		if st := s.router.Stats(); st.Failovers+st.Evictions+st.LocalFallbacks+st.Failed > 0 {
			ph.failed++
			ph.note("router stats %+v", st)
		}
	}
}

func (s *service) layers(t *tracer, traced *phase, out map[string]float64) error {
	out["scenario.generate_ms_per_trace"] = s.genMS
	var parse time.Duration
	for _, q := range s.queries {
		v, err := url.ParseQuery(q)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := scenario.ParseSpec(v.Get("scenario")); err != nil {
			return err
		}
		parse += time.Since(start)
	}
	out["scenario.parse_us"] = ms(parse) * 1000 / float64(len(s.queries))

	l, err := t.partitionLayers(traced, out)
	if err != nil {
		return err
	}
	out["core.regrid_p99_ms"] = tail(l.dur[spanRegrid], 0.99)
	c := traced.counts
	runs := float64(traced.runs)

	sm := traced.samples
	latency := mean(traced.runMS)
	out["sched.queue_wait_ms_p50"] = median(sm["queue"])
	out["sched.run_ms_p50"] = median(sm["exec"])
	out["sched.rejected"] = c["pragma_sched_admissions_total"] - c["pragma_sched_admissions_total{accepted}"]
	out["sched.preemptions"] = c["pragma_sched_preemptions_total"]
	out["http.submit_ms_p50"] = median(sm["submit"])
	out["http.status_ms_p99"] = tail(traced.opMS, 0.99)
	out["http.status_bytes"] = mean(sm["status_bytes"])
	out["stream.done_lag_ms_p50"] = median(sm["done_lag"])
	out["stream.events_per_run"] = sum(sm["events"]) / runs
	out["stream.dropped"] = sum(sm["dropped"])

	// Where a mean run's latency goes. Outside the replay: the client's
	// two requests, the wait for a worker, the event's way back. Inside:
	// the layers core.Run calls, per run.
	replayMS := mean(sm["exec"]) // Started to Finished is core.Run on the pool's goroutine
	shares := map[string]float64{
		"http (submit)":     mean(sm["submit"]),
		"http (status)":     mean(traced.opMS),
		"stream (done lag)": mean(sm["done_lag"]),
	}
	if s.fleet {
		// Only the workers' pools ran anything, so the scheduler's
		// run-seconds histogram is the worker-side replay time.
		replayMS = 1000 * c["pragma_sched_run_seconds_sum"] / c["pragma_sched_run_seconds_count"]
		out["fleet.dispatch_ms_p50"] = median(sm["queue"])
		out["fleet.overhead_ms_per_run"] = latency - replayMS
		out["fleet.retries"] = c["pragma_fleet_dispatch_retries_total"]
		out["fleet.failovers"] = c["pragma_fleet_failovers_total"]
		out["fleet.local_fallbacks"] = c["pragma_fleet_local_fallbacks_total"]
		var most float64
		for i := 0; i < fleetWorkers; i++ {
			most = max(most, sum(sm[fmt.Sprintf("placed:w%d", i)]))
		}
		out["fleet.placement_skew"] = most / (runs / fleetWorkers)
		out["agents.messages_per_run"] = c["pragma_agents_messages_total"] / runs
		rtt, err := s.pingPong(2000)
		if err != nil {
			return err
		}
		out["agents.rtt_us_p50"] = median(rtt)
		out["sched.overhead_ms_per_run"] = mean(sm["exec"]) - replayMS
		shares["fleet+agents (place, dispatch, ack)"] = mean(sm["queue"])
		shares["fleet+agents+sched (worker pool, result)"] = mean(sm["exec"]) - replayMS
	} else {
		out["sched.overhead_ms_per_run"] = latency - mean(sm["queue"]) - replayMS
		shares["sched (queue wait)"] = mean(sm["queue"])
	}
	var outside float64
	for _, v := range shares {
		outside += v
	}
	self := replayMS
	for name, v := range l.shares { // the phase's totals, here per run
		shares[name] = v / runs
		self -= v / runs
	}
	shares["core (self, unattributed)"] = self
	// The rest is the client's own: waiting its turn in the loop, the
	// result check. The POST's response and the run's placement overlap,
	// so on half-millisecond runs it can come out slightly negative.
	shares["client (rest)"] = latency - outside - replayMS
	out["core.self_ms_per_regrid"] = self * runs / l.regrids
	out["core.unattributed_pct"] = 100 * self / replayMS
	layerShares("mean run latency", latency, shares)
	return nil
}

// pingPong bounces n messages between two harness ports hosted by two TCP
// clients of the router's Center and returns the round-trip times in
// microseconds: the control network's share of a dispatch, by itself.
func (s *service) pingPong(n int) ([]float64, error) {
	var ends [2]*agents.Client
	var boxes [2]<-chan agents.Message
	names := [2]string{"bench/ping", "bench/pong"}
	for i := range ends {
		c, err := agents.Dial(s.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		ends[i] = c
		if boxes[i], err = c.Register(names[i], 1); err != nil {
			return nil, err
		}
	}
	broken := make(chan error, 1) // the echo goroutine's one possible failure
	go func() {
		for i := 0; i < n; i++ {
			m, ok := <-boxes[1]
			if !ok {
				broken <- fmt.Errorf("pong mailbox closed after %d", i)
				return
			}
			if err := ends[1].Send(agents.Message{From: names[1], To: names[0], Kind: "bench.pong", Payload: m.Payload}); err != nil {
				broken <- err
				return
			}
		}
	}()
	payload := agents.Encode(struct{}{})
	rtt := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := ends[0].Send(agents.Message{From: names[0], To: names[1], Kind: "bench.ping", Payload: payload}); err != nil {
			return nil, err
		}
		select {
		case <-boxes[0]:
		case err := <-broken:
			return nil, fmt.Errorf("ping %d: %w", i, err)
		case <-time.After(quiet):
			return nil, fmt.Errorf("ping %d: no pong", i)
		}
		rtt = append(rtt, float64(time.Since(start))/float64(time.Microsecond))
	}
	return rtt, nil
}
