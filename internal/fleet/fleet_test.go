package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/sched"
)

// tinyTrace is a deliberately small RM3D trace (16x8x8 base, 2 levels, 16
// snapshots) so fleet tests can push real replays through TCP-connected
// workers under -race in seconds.
var tinyTrace = struct {
	once sync.Once
	tr   *samr.Trace
	err  error
}{}

func testTrace(t testing.TB) *samr.Trace {
	t.Helper()
	tinyTrace.once.Do(func() {
		cfg := rm3d.SmallConfig()
		cfg.BaseDims = [3]int{16, 8, 8}
		cfg.MaxDepth = 2
		cfg.CoarseSteps = 60 // 16 snapshots
		tinyTrace.tr, tinyTrace.err = rm3d.GenerateTrace(cfg)
	})
	if tinyTrace.err != nil {
		t.Fatal(tinyTrace.err)
	}
	return tinyTrace.tr
}

// testMaterializer maps every wire spec onto the tiny trace, honoring the
// checkpoint and regrid-delay fields — shared by workers, router fallback
// and the reference runs, exactly as the production materializer is.
func testMaterializer(t testing.TB) Materializer {
	return func(ws WireSpec) (sched.RunSpec, error) {
		p, err := partition.ByName("G-MISP+SP")
		if err != nil {
			return sched.RunSpec{}, err
		}
		var strat core.Strategy = core.Static{P: p}
		if ws.RegridDelayMS > 0 {
			strat = DelayStrategy(strat, time.Duration(ws.RegridDelayMS)*time.Millisecond)
		}
		return sched.RunSpec{
			Trace:           testTrace(t),
			Strategy:        strat,
			Machine:         cluster.SP2(4),
			NProcs:          4,
			CheckpointDir:   ws.CheckpointDir,
			CheckpointEvery: ws.CheckpointEvery,
			Resume:          ws.Resume,
		}, nil
	}
}

// refResult computes the unfailed single-node reference every fleet run
// must reproduce bit-identically, checkpointing into dir when non-empty.
func refResult(t testing.TB, mat Materializer, ws WireSpec) *core.RunResult {
	t.Helper()
	spec, err := mat(ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(spec.Trace, spec.Strategy, core.RunConfig{
		Machine: spec.Machine, NProcs: spec.NProcs,
		CheckpointDir: spec.CheckpointDir, CheckpointEvery: spec.CheckpointEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// startCenter serves a Message Center on loopback TCP.
func startCenter(t *testing.T, opts ...agents.CenterOption) (*agents.Center, string) {
	t.Helper()
	center := agents.NewCenter(opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go center.Serve(ln)
	return center, ln.Addr().String()
}

// startWorker dials the center over TCP and joins the fleet.
func startWorker(t *testing.T, addr, id string, mat Materializer, slots int) (*Worker, *agents.Client) {
	t.Helper()
	cl, err := agents.Dial(addr,
		agents.WithReconnect(true),
		agents.WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		agents.WithHeartbeat(30*time.Millisecond),
		agents.WithOpTimeout(5*time.Second),
		agents.WithErrorHandler(func(error) {}))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{
		Port:           cl,
		ID:             id,
		Slots:          slots,
		HeartbeatEvery: 30 * time.Millisecond,
		Materialize:    mat,
	})
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	return w, cl
}

func testRouter(t *testing.T, center *agents.Center, mat Materializer, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Port:             center,
		HeartbeatTimeout: 500 * time.Millisecond,
		Materialize:      mat,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.AttachCenter(center)
	t.Cleanup(func() { r.Close() })
	return r
}

// waitReachable blocks until the router sees n placeable workers.
func waitReachable(t *testing.T, r *Router, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Stats().Reachable < n {
		if time.Now().After(deadline) {
			t.Fatalf("router never saw %d reachable workers (stats %+v)", n, r.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func sameRunResult(t *testing.T, label string, got, want *core.RunResult) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result", label)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result diverged from the unfailed reference\ngot  %+v\nwant %+v", label, got, want)
	}
}

// TestFleetEndToEnd shards several runs across two TCP-connected workers
// and requires every one to complete with the reference result.
func TestFleetEndToEnd(t *testing.T) {
	mat := testMaterializer(t)
	center, addr := startCenter(t)
	r := testRouter(t, center, mat, nil)
	for i := 0; i < 2; i++ {
		w, cl := startWorker(t, addr, fmt.Sprintf("w%d", i), mat, 2)
		t.Cleanup(func() { cl.Close() })
		t.Cleanup(func() { w.Close() })
	}
	waitReachable(t, r, 2)

	want := refResult(t, mat, WireSpec{})
	const n = 4
	ids := make([]string, n)
	for i := range ids {
		st, err := r.Submit(SubmitRequest{Tenant: "acme", Spec: WireSpec{}})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range ids {
		st, err := r.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != sched.StateDone {
			t.Fatalf("run %s: state %s (err %q)", id, st.State, st.Error)
		}
		if st.Placement == "" || st.Placement == "local" {
			t.Fatalf("run %s: placed %q, want a remote worker", id, st.Placement)
		}
		sameRunResult(t, id, st.Result, want)
	}
	if st := r.Stats(); st.Done != n || st.LocalFallbacks != 0 {
		t.Fatalf("stats %+v, want %d done and no local fallbacks", st, n)
	}
}

// TestFleetFailoverBitIdentical is the robustness core: a worker is killed
// mid-run (link torn down, no goodbye — the in-process equivalent of
// SIGKILL) after it has checkpointed, and the run must complete on the
// surviving worker with a final result AND a final checkpoint state
// bit-identical to an unfailed single-node reference run.
func TestFleetFailoverBitIdentical(t *testing.T) {
	mat := testMaterializer(t)
	center, addr := startCenter(t, agents.WithHeartbeatTimeout(2*time.Second))
	r := testRouter(t, center, mat, nil)

	workers := map[string]*Worker{}
	clients := map[string]*agents.Client{}
	for _, id := range []string{"w0", "w1"} {
		w, cl := startWorker(t, addr, id, mat, 1)
		workers[id], clients[id] = w, cl
		t.Cleanup(func() { cl.Close() })
	}
	waitReachable(t, r, 2)

	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "fleet")
	refDir := filepath.Join(dir, "ref")
	ws := WireSpec{
		CheckpointDir:   ckptDir,
		CheckpointEvery: 1,
		RegridDelayMS:   25, // keep the run in flight long enough to kill
	}
	failoversBefore := metricFailovers.Value()

	st, err := r.Submit(SubmitRequest{Tenant: "acme", Spec: ws})
	if err != nil {
		t.Fatal(err)
	}

	// Find where it landed, then wait for its first checkpoint to exist so
	// the failover genuinely resumes rather than restarting from scratch.
	var victim string
	deadline := time.Now().Add(30 * time.Second)
	for victim == "" {
		if time.Now().After(deadline) {
			t.Fatal("run never started on a worker")
		}
		if cur, ok := r.Status(st.ID); ok && cur.State == sched.StateRunning && cur.Placement != "" {
			victim = cur.Placement
		}
		time.Sleep(5 * time.Millisecond)
	}
	store := &checkpoint.Store{Dir: ckptDir}
	for {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint ever appeared")
		}
		if recs, _ := store.Records(); len(recs) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the victim: tear its link down with no goodbye. The center's
	// disconnect hook must evict it and the router must resume the run on
	// the survivor from the latest CRC-verified checkpoint.
	evictionsBefore := metricEvictions.Value()
	clients[victim].Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := r.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateDone {
		t.Fatalf("state %s (err %q), want done", final.State, final.Error)
	}
	if final.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", final.Failovers)
	}
	if final.Placement == victim {
		t.Fatalf("run finished on the killed worker %s", victim)
	}
	if got := metricFailovers.Value(); got <= failoversBefore {
		t.Fatalf("pragma_fleet_failovers_total = %d, want > %d", got, failoversBefore)
	}
	if got := metricEvictions.Value(); got <= evictionsBefore {
		t.Fatalf("pragma_fleet_evictions_total = %d, want > %d", got, evictionsBefore)
	}

	// The killed worker's zombie pool may still be running; stop it so the
	// comparison below sees a settled directory. (Its appends go to its own
	// log, which the survivor unlinked, so even before this they were
	// harmless.)
	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	defer dcancel()
	if err := workers[victim].Drain(dctx); err != nil {
		t.Fatalf("draining zombie: %v", err)
	}

	// Bit-identical to the unfailed single-node reference: both the run
	// result and the state the final checkpoint log replays to. (Not one
	// record's bytes: the survivor's log starts with a full base where the
	// reference's holds one interval.)
	refWS := ws
	refWS.CheckpointDir = refDir
	want := refResult(t, mat, refWS)
	sameRunResult(t, "failed-over run", final.Result, want)

	gotState, err := core.ReadCheckpoint(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	wantState, err := core.ReadCheckpoint(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if gotState == nil || wantState == nil {
		t.Fatalf("missing final checkpoint: failed-over %v, reference %v", gotState != nil, wantState != nil)
	}
	if gotState.Next != wantState.Next {
		t.Fatalf("final checkpoint at regrid %d, reference at %d", gotState.Next, wantState.Next)
	}
	if !reflect.DeepEqual(gotState, wantState) {
		t.Fatalf("final checkpoint state diverged from the unfailed reference")
	}
}

// TestFleetLocalFallback: with zero workers reachable the router must
// degrade to local execution, not fail the run.
func TestFleetLocalFallback(t *testing.T) {
	mat := testMaterializer(t)
	center, _ := startCenter(t)
	r := testRouter(t, center, mat, nil)
	st, err := r.Submit(SubmitRequest{Tenant: "acme", Spec: WireSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := r.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateDone {
		t.Fatalf("state %s (err %q), want done", final.State, final.Error)
	}
	if final.Placement != "local" {
		t.Fatalf("placement %q, want local", final.Placement)
	}
	sameRunResult(t, "local fallback", final.Result, refResult(t, mat, WireSpec{}))
	if st := r.Stats(); st.LocalFallbacks != 1 {
		t.Fatalf("LocalFallbacks = %d, want 1", st.LocalFallbacks)
	}
}

// TestFleetBreaker: a worker that advertises capacity but never answers
// dispatches must trip its circuit breaker, and the run must still
// complete via the fallback path.
func TestFleetBreaker(t *testing.T) {
	mat := testMaterializer(t)
	center, _ := startCenter(t)

	// A liar worker: hellos and heartbeats, never acks.
	liarPort := WorkerPort("liar")
	inbox, err := center.Register(liarPort, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { center.Unregister(liarPort) })
	go func() {
		for range inbox { // swallow dispatches silently
		}
	}()

	// Restored after the router closes: cleanups run last-in first-out.
	deadline := dispatchDeadline
	dispatchDeadline = 50 * time.Millisecond
	t.Cleanup(func() { dispatchDeadline = deadline })
	r := testRouter(t, center, mat, nil)
	if err := send(center, liarPort, RouterPort, KindHello, helloMsg{ID: "liar", Slots: 4}); err != nil {
		t.Fatal(err)
	}
	hbStop := make(chan struct{})
	t.Cleanup(func() { close(hbStop) })
	go func() {
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ticker.C:
				send(center, liarPort, RouterPort, KindHeartbeat,
					heartbeatMsg{ID: "liar", CPU: 1, Slots: 4})
			}
		}
	}()
	waitReachable(t, r, 1)

	breakerBefore := metricBreakerOpens.Value()
	timeoutBefore := dispatchTimeout.Value()
	st, err := r.Submit(SubmitRequest{Tenant: "acme", Spec: WireSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	final, err := r.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sched.StateDone {
		t.Fatalf("state %s (err %q), want done", final.State, final.Error)
	}
	if final.Placement != "local" {
		t.Fatalf("placement %q, want local (the liar never admits)", final.Placement)
	}
	if got := dispatchTimeout.Value(); got <= timeoutBefore {
		t.Fatalf("dispatch timeouts = %d, want > %d", got, timeoutBefore)
	}
	if got := metricBreakerOpens.Value(); got <= breakerBefore {
		t.Fatalf("breaker opens = %d, want > %d", got, breakerBefore)
	}
}

// TestFleetDrain: draining the fleet mid-run checkpoints in-flight work on
// the workers and records it drained-resumable at the router.
func TestFleetDrain(t *testing.T) {
	mat := testMaterializer(t)
	center, addr := startCenter(t)
	r := testRouter(t, center, mat, nil)
	w, cl := startWorker(t, addr, "w0", mat, 1)
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)

	ws := WireSpec{
		CheckpointDir:   filepath.Join(t.TempDir(), "ckpt"),
		CheckpointEvery: 1,
		RegridDelayMS:   25,
	}
	st, err := r.Submit(SubmitRequest{Tenant: "acme", Spec: ws})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		if cur, ok := r.Status(st.ID); ok && cur.State == sched.StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	final, ok := r.Status(st.ID)
	if !ok {
		t.Fatal("run record vanished")
	}
	if final.State != sched.StateDrained || !final.Resumable {
		t.Fatalf("state %s resumable=%v, want drained+resumable", final.State, final.Resumable)
	}
	if final.CheckpointDir != ws.CheckpointDir {
		t.Fatalf("drained checkpoint dir %q, want %q", final.CheckpointDir, ws.CheckpointDir)
	}
	if _, err := r.Submit(SubmitRequest{Tenant: "acme", Spec: WireSpec{}}); !errors.Is(err, sched.ErrDraining) {
		t.Fatalf("submit during drain: %v, want sched.ErrDraining", err)
	}
	if !r.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	// The worker was asked to drain too.
	wdl := time.Now().Add(10 * time.Second)
	for !w.Draining() {
		if time.Now().After(wdl) {
			t.Fatal("worker never saw the drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the checkpoints are real: a resumed local run completes from them.
	res := refResult(t, mat, WireSpec{}) // plain reference, no delay
	resumed := ws
	resumed.Resume = true
	resumed.RegridDelayMS = 0
	spec, err := mat(resumed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(spec.Trace, spec.Strategy, core.RunConfig{
		Machine: spec.Machine, NProcs: spec.NProcs,
		CheckpointDir: spec.CheckpointDir, CheckpointEvery: spec.CheckpointEvery,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRunResult(t, "resumed after drain", got, res)
}

// TestSpecFromValues exercises the HTTP submit parameter parsing.
func TestSpecFromValues(t *testing.T) {
	v := map[string][]string{
		"trace":            {"small"},
		"strategy":         {"adaptive"},
		"procs":            {"4"},
		"checkpoint":       {"/tmp/x"},
		"checkpoint-every": {"2"},
		"regrid-delay-ms":  {"10"},
		"resume":           {"true"},
	}
	ws, err := SpecFromValues(v)
	if err != nil {
		t.Fatal(err)
	}
	want := WireSpec{
		Trace: "small", Strategy: "adaptive", Procs: 4,
		CheckpointDir: "/tmp/x", CheckpointEvery: 2, RegridDelayMS: 10, Resume: true,
	}
	if ws != want {
		t.Fatalf("got %+v want %+v", ws, want)
	}
	if _, err := SpecFromValues(map[string][]string{"trace": {"x"}, "scenario": {"y"}}); err == nil {
		t.Fatal("trace+scenario accepted")
	}
	if _, err := SpecFromValues(map[string][]string{"procs": {"many"}}); err == nil {
		t.Fatal("bad procs accepted")
	}
	// The materializer every submit goes through refuses parsed values
	// past their bounds before it builds anything.
	mat := DefaultMaterializer()
	for _, c := range []struct {
		param, value string
		ok           bool
	}{
		{"procs", "1", true},
		{"procs", "1024", true},
		{"procs", "1025", false},
		{"procs", "-1", false},
		{"procs", "1000000000", false},
		{"regrid-delay-ms", "1000", true},
		{"regrid-delay-ms", "1001", false},
		{"regrid-delay-ms", "-1", false},
	} {
		ws, err := SpecFromValues(map[string][]string{c.param: {c.value}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mat(ws); (err == nil) != c.ok {
			t.Errorf("%s=%s: materialize err %v, want ok=%v", c.param, c.value, err, c.ok)
		}
	}
}

func TestSafePathComponent(t *testing.T) {
	cases := map[string]string{
		"fleet-000001": "fleet-000001",
		"../../etc":    "______etc",
		"":             "run",
		"a b/c":        "a_b_c",
	}
	for in, want := range cases {
		if got := safePathComponent(in); got != want {
			t.Errorf("safePathComponent(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMain shortens the router's retry timing for every test: backoff
// in milliseconds, and a second (not two) for a worker to acknowledge.
func TestMain(m *testing.M) {
	dispatchDeadline, backoffBase, backoffMax = time.Second, 5*time.Millisecond, 50*time.Millisecond
	os.Exit(m.Run())
}

// TestRemoteDrainClosesStopped checks the channels serving binaries exit
// on: draining the router closes its Stopped, and the drain it relays to
// a worker closes the worker's Stopped without a local call.
func TestRemoteDrainClosesStopped(t *testing.T) {
	mat := testMaterializer(t)
	center, addr := startCenter(t)
	r := testRouter(t, center, mat, nil)
	w, cl := startWorker(t, addr, "w0", mat, 1)
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { w.Close() })
	waitReachable(t, r, 1)
	select {
	case <-w.Stopped():
		t.Fatal("worker stopped before any drain")
	default:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for name, stopped := range map[string]<-chan struct{}{"router": r.Stopped(), "worker": w.Stopped()} {
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s Stopped still open after the router drained", name)
		}
	}
}
