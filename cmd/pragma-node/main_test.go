package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/pragma-grid/pragma"
	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/fleet"
	"github.com/pragma-grid/pragma/internal/sched"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// defaults is the config a subcommand run with no flags holds.
func defaults(t *testing.T, name string) config {
	t.Helper()
	cmd, ok := lookup(name)
	if !ok {
		t.Fatalf("no subcommand %q", name)
	}
	c := config{cmd: name}
	flagSet(cmd, &c)
	return c
}

// flagNames lists the flags a subcommand reads, sorted.
func flagNames(cmd command) []string {
	var names []string
	flagSet(cmd, &config{}).VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

func mustParse(t *testing.T, args ...string) config {
	t.Helper()
	c, err := parse(args)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return c
}

// TestSubcommandFlags pins which flags each subcommand reads: 35 names in
// all, none of them a mode selector.
func TestSubcommandFlags(t *testing.T) {
	common := []string{"run-for", "telemetry-addr"}
	link := []string{"chaos-corrupt", "chaos-drop", "chaos-jitter", "chaos-latency", "chaos-max-faults", "chaos-seed", "heartbeat", "id", "reconnect"}
	want := map[string][]string{
		"broker": {"heartbeat-timeout", "interval", "serve", "write-timeout"},
		"node":   append([]string{"interval", "join", "load", "overload", "wobble"}, link...),
		"replay": {"checkpoint-dir", "checkpoint-every", "crash-at", "procs", "resume", "scenario", "strategy", "telemetry-hold", "trace"},
		"sched":  {"checkpoint-root", "drain-timeout", "queue", "state", "tenant-limit", "workers"},
		"router": {"checkpoint-root", "drain-timeout", "heartbeat-timeout", "serve", "write-timeout"},
		"worker": append([]string{"drain-timeout", "join", "slots"}, link...),
	}
	all := map[string]bool{}
	for _, cmd := range commands {
		w := append(append([]string{}, common...), want[cmd.name]...)
		sort.Strings(w)
		got := flagNames(cmd)
		if !slices.Equal(got, w) {
			t.Errorf("%s flags:\n got %v\nwant %v", cmd.name, got, w)
		}
		for _, n := range got {
			all[n] = true
		}
	}
	if len(commands) != 6 || len(all) != 35 {
		t.Errorf("%d subcommands with %d flag names, want 6 with 35", len(commands), len(all))
	}
}

// TestParseDocumentedInvocations: every pragma-node invocation in the
// scripts, CI, README, DESIGN, the package doc and the verify recipe
// parses to the config its mode runs with.
func TestParseDocumentedInvocations(t *testing.T) {
	cases := []struct {
		source string
		args   []string
		want   func(*config)
	}{
		{"package doc broker", []string{"broker", "-serve", "127.0.0.1:7070"}, func(c *config) {
			c.addr = "127.0.0.1:7070"
		}},
		{"package doc node", []string{"node", "-join", "127.0.0.1:7070", "-id", "node-1", "-load", "0.9"}, func(c *config) {
			c.addr, c.id, c.load = "127.0.0.1:7070", "node-1", 0.9
		}},
		{"README/DESIGN chaos", []string{"node", "-join", "127.0.0.1:7070", "-chaos-drop", "0.01", "-chaos-latency", "2ms"}, func(c *config) {
			c.addr, c.chaos.DropRate, c.chaos.Latency = "127.0.0.1:7070", 0.01, 2*time.Millisecond
		}},
		{"CI control network broker", []string{"broker", "-serve", "127.0.0.1:17171", "-interval", "500ms", "-run-for", "8s"}, func(c *config) {
			c.addr, c.interval, c.runFor = "127.0.0.1:17171", 500*time.Millisecond, 8*time.Second
		}},
		{"CI control network node", []string{"node", "-join", "127.0.0.1:17171", "-id", "n1", "-load", "0.9", "-interval", "250ms",
			"-chaos-drop", "0.05", "-chaos-max-faults", "4", "-run-for", "6s"}, func(c *config) {
			c.addr, c.id, c.load, c.interval, c.runFor = "127.0.0.1:17171", "n1", 0.9, 250*time.Millisecond, 6*time.Second
			c.chaos.DropRate, c.chaos.MaxFaults = 0.05, 4
		}},
		{"verify broker", []string{"broker", "-serve", "127.0.0.1:7171", "-heartbeat-timeout", "2s", "-interval", "1s"}, func(c *config) {
			c.addr, c.heartbeatTimeout = "127.0.0.1:7171", 2*time.Second
		}},
		{"verify node", []string{"node", "-join", "127.0.0.1:7171", "-id", "node-1", "-load", "0.9", "-heartbeat", "500ms",
			"-chaos-drop", "0.05", "-chaos-corrupt", "0.02", "-chaos-seed", "3", "-chaos-max-faults", "6", "-interval", "500ms", "-run-for", "15s"}, func(c *config) {
			c.addr, c.id, c.load, c.heartbeat = "127.0.0.1:7171", "node-1", 0.9, 500*time.Millisecond
			c.chaos = pragma.ChaosConfig{DropRate: 0.05, CorruptRate: 0.02, Seed: 3, MaxFaults: 6}
			c.interval, c.runFor = 500*time.Millisecond, 15*time.Second
		}},
		{"README/DESIGN crash", []string{"replay", "-checkpoint-dir", "./ckpt", "-crash-at", "8"}, func(c *config) {
			c.replay.CheckpointDir, c.crashAt = "./ckpt", 8
		}},
		{"README/DESIGN resume", []string{"replay", "-checkpoint-dir", "./ckpt", "-resume"}, func(c *config) {
			c.replay.CheckpointDir, c.replay.Resume = "./ckpt", true
		}},
		{"README telemetry", []string{"replay", "-checkpoint-dir", "./ckpt", "-telemetry-addr", "127.0.0.1:9090", "-telemetry-hold", "5m"}, func(c *config) {
			c.replay.CheckpointDir, c.telemetryAddr, c.telemetryHold = "./ckpt", "127.0.0.1:9090", 5*time.Minute
		}},
		{"DESIGN telemetry", []string{"replay", "-telemetry-addr", ":9090", "-telemetry-hold", "5m"}, func(c *config) {
			c.telemetryAddr, c.telemetryHold = ":9090", 5*time.Minute
		}},
		{"CI telemetry smoke", []string{"replay", "-telemetry-addr", "127.0.0.1:19191", "-telemetry-hold", "120s"}, func(c *config) {
			c.telemetryAddr, c.telemetryHold = "127.0.0.1:19191", 2*time.Minute
		}},
		{"README workloads", []string{"replay", "-scenario", "seed=7;shock:8,block:6", "-procs", "8"}, func(c *config) {
			c.replay.Scenario = "seed=7;shock:8,block:6"
		}},
		{"README/package doc sched", []string{"sched", "-workers", "4", "-checkpoint-root", "./runs", "-telemetry-addr", "127.0.0.1:9090"}, func(c *config) {
			c.checkpointRoot, c.telemetryAddr = "./runs", "127.0.0.1:9090"
		}},
		{"CI scheduler smoke", []string{"sched", "-workers", "2", "-checkpoint-root", "/tmp/pragma-runs", "-telemetry-addr", "127.0.0.1:19192"}, func(c *config) {
			c.workers, c.checkpointRoot, c.telemetryAddr = 2, "/tmp/pragma-runs", "127.0.0.1:19192"
		}},
		{"preempt_smoke.sh", []string{"sched", "-workers", "2", "-checkpoint-root", "runs", "-queue", "256", "-tenant-limit", "0", "-telemetry-addr", "127.0.0.1:19194"}, func(c *config) {
			c.workers, c.checkpointRoot, c.queue, c.tenantLimit, c.telemetryAddr = 2, "runs", 256, 0, "127.0.0.1:19194"
		}},
		{"roll_smoke.sh", []string{"sched", "-workers", "2", "-checkpoint-root", "runs", "-state", "state", "-telemetry-addr", "127.0.0.1:19195"}, func(c *config) {
			c.workers, c.checkpointRoot, c.state, c.telemetryAddr = 2, "runs", "state", "127.0.0.1:19195"
		}},
		{"README roll", []string{"sched", "-workers", "4", "-state", "./state", "-checkpoint-root", "./runs", "-telemetry-addr", "127.0.0.1:9090"}, func(c *config) {
			c.state, c.checkpointRoot, c.telemetryAddr = "./state", "./runs", "127.0.0.1:9090"
		}},
		{"fleet_smoke.sh router", []string{"router", "-serve", "127.0.0.1:17070", "-telemetry-addr", "127.0.0.1:19193", "-checkpoint-root", "runs", "-heartbeat-timeout", "2s"}, func(c *config) {
			c.addr, c.telemetryAddr, c.checkpointRoot, c.heartbeatTimeout = "127.0.0.1:17070", "127.0.0.1:19193", "runs", 2*time.Second
		}},
		{"README/package doc router", []string{"router", "-serve", "127.0.0.1:7070", "-checkpoint-root", "./runs", "-telemetry-addr", "127.0.0.1:9090"}, func(c *config) {
			c.addr, c.checkpointRoot, c.telemetryAddr = "127.0.0.1:7070", "./runs", "127.0.0.1:9090"
		}},
		{"fleet_smoke.sh worker", []string{"worker", "-join", "127.0.0.1:17070", "-id", "w1", "-slots", "2", "-heartbeat", "200ms"}, func(c *config) {
			c.addr, c.id, c.heartbeat = "127.0.0.1:17070", "w1", 200*time.Millisecond
		}},
		{"README/DESIGN worker", []string{"worker", "-join", "127.0.0.1:7070", "-id", "w1", "-slots", "2"}, func(c *config) {
			c.addr, c.id = "127.0.0.1:7070", "w1"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.source, func(t *testing.T) {
			want := defaults(t, tc.args[0])
			tc.want(&want)
			if got := mustParse(t, tc.args...); !reflect.DeepEqual(got, want) {
				t.Errorf("parse %q:\n got %+v\nwant %+v", tc.args, got, want)
			}
		})
	}
}

// TestParseDefaults pins the defaults the modes ran with before the
// split.
func TestParseDefaults(t *testing.T) {
	n := defaults(t, "node")
	w := defaults(t, "worker")
	s := defaults(t, "sched")
	r := defaults(t, "replay")
	if n.id != "node-0" || !n.reconnect || n.heartbeat != time.Second || n.interval != time.Second ||
		n.load != 0.3 || n.wobble != 0.15 || n.overload != 0.8 || n.chaos != (pragma.ChaosConfig{Seed: 1}) {
		t.Errorf("node defaults %+v", n)
	}
	if w.slots != 2 || w.drainTimeout != time.Minute || !w.reconnect {
		t.Errorf("worker defaults %+v", w)
	}
	if s.workers != 4 || s.queue != 64 || s.tenantLimit != 8 || s.drainTimeout != time.Minute {
		t.Errorf("sched defaults %+v", s)
	}
	if r.replay != (fleet.WireSpec{Trace: "small", Strategy: "adaptive", Procs: 8, CheckpointEvery: 1}) {
		t.Errorf("replay defaults %+v", r)
	}
	if b := defaults(t, "broker"); b.heartbeatTimeout != 5*time.Second || b.writeTimeout != 5*time.Second {
		t.Errorf("broker defaults %+v", b)
	}
}

// TestParseRejects: each value a mode cannot run with is a usage error
// naming its flag.
func TestParseRejects(t *testing.T) {
	const a = "127.0.0.1:1"
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"broker"}, "-serve"},
		{[]string{"router", "-telemetry-addr", a}, "-serve"},
		{[]string{"node"}, "-join"},
		{[]string{"worker"}, "-join"},
		{[]string{"sched"}, "-telemetry-addr"},
		{[]string{"router", "-serve", a}, "-telemetry-addr"},
		{[]string{"sched", "-telemetry-addr", a, "-workers", "0"}, "-workers"},
		{[]string{"worker", "-join", a, "-slots", "-3"}, "-slots"},
		{[]string{"replay", "-procs", "0"}, "-procs"},
		{[]string{"sched", "-telemetry-addr", a, "-queue", "0"}, "-queue"},
		{[]string{"replay", "-checkpoint-every", "0"}, "-checkpoint-every"},
		{[]string{"sched", "-telemetry-addr", a, "-tenant-limit", "-1"}, "-tenant-limit"},
		{[]string{"broker", "-serve", a, "-interval", "0"}, "-interval"},
		{[]string{"broker", "-serve", a, "-heartbeat-timeout", "-1s"}, "-heartbeat-timeout"},
		{[]string{"router", "-serve", a, "-telemetry-addr", a, "-write-timeout", "-1s"}, "-write-timeout"},
		{[]string{"sched", "-telemetry-addr", a, "-drain-timeout", "-1s"}, "-drain-timeout"},
		{[]string{"node", "-join", a, "-heartbeat", "-1ms"}, "-heartbeat"},
		{[]string{"node", "-join", a, "-interval", "-1s"}, "-interval"},
		{[]string{"worker", "-join", a, "-chaos-latency", "-1ms"}, "-chaos-latency"},
		{[]string{"node", "-join", a, "-chaos-jitter", "-1ms"}, "-chaos-jitter"},
		{[]string{"replay", "-run-for", "-1s"}, "-run-for"},
		{[]string{"node", "-join", a, "-chaos-drop", "1.5"}, "-chaos-drop"},
		{[]string{"node", "-join", a, "-chaos-drop", "NaN"}, "-chaos-drop"},
		{[]string{"worker", "-join", a, "-chaos-corrupt", "-0.1"}, "-chaos-corrupt"},
		{[]string{"replay", "-resume"}, "-resume"},
		{[]string{"replay", "-telemetry-hold", "1m"}, "-telemetry-hold"},
		{[]string{"replay", "-procs", "many"}, "-procs"},
		{[]string{"sched", "-telemetry-addr", a, "2"}, `"2"`},
	}
	for _, tc := range cases {
		_, err := parse(tc.args)
		if err == nil {
			t.Errorf("parse %q accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("parse %q: %v, want it to name %s", tc.args, err, tc.flag)
		}
	}
}

// TestParseRejectsForeignFlags: every flag a subcommand does not read is a
// usage error. Before the split such a flag parsed and was ignored (the
// slots of a scheduler, the state directory of a node, the checkpoint root
// of a replay), and modes combined freely: the serve address of a
// scheduler, the workers of a replay.
func TestParseRejectsForeignFlags(t *testing.T) {
	all := map[string]bool{}
	for _, cmd := range commands {
		for _, n := range flagNames(cmd) {
			all[n] = true
		}
	}
	for _, cmd := range commands {
		own := map[string]bool{}
		for _, n := range flagNames(cmd) {
			own[n] = true
		}
		for n := range all {
			if own[n] {
				continue
			}
			_, err := parse([]string{cmd.name, "-" + n, "1"})
			if err == nil || !strings.Contains(err.Error(), "not defined: -"+n) {
				t.Errorf("%s -%s: %v, want it rejected as not defined", cmd.name, n, err)
			}
		}
	}
}

// TestUsageExit: no subcommand, an unknown one or an old mode flag exits
// 2 and lists the six subcommands; a bad flag exits 2 with the
// subcommand's own flags.
func TestUsageExit(t *testing.T) {
	for _, args := range [][]string{nil, {"fleet"}, {"-serve", "127.0.0.1:7070"}, {"-sched", "2"}} {
		var stderr bytes.Buffer
		if code := runMain(args, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		for _, cmd := range commands {
			if !strings.Contains(stderr.String(), "\n  "+cmd.name+" ") {
				t.Errorf("%q: usage does not list %s:\n%s", args, cmd.name, stderr.String())
			}
		}
	}
	var stderr bytes.Buffer
	if code := runMain([]string{"worker", "-join", "127.0.0.1:1", "-slots", "0"}, &stderr); code != 2 {
		t.Errorf("worker -slots 0: exit %d, want 2", code)
	}
	if out := stderr.String(); !strings.Contains(out, "-slots must be at least 1") || !strings.Contains(out, "-chaos-drop") {
		t.Errorf("worker usage error:\n%s", out)
	}
}

func linkLosses() uint64 {
	return telemetry.Default.Counter("pragma_agents_link_losses_total", "").Value()
}

// TestWorkerDialsThroughChaos: the worker subcommand joins through the
// same dial options as node, -chaos-* included. With every op dropped
// until a one-fault budget is spent, the worker's first link is lost (or
// its join fails); without the flags it joins on a clean link.
func TestWorkerDialsThroughChaos(t *testing.T) {
	center := pragma.NewMessageCenter()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go center.Serve(ln)
	hellos, err := center.Register(fleet.RouterPort, 64)
	if err != nil {
		t.Fatal(err)
	}
	start := func(extra ...string) (context.CancelFunc, chan error) {
		c := mustParse(t, append([]string{"worker", "-join", ln.Addr().String(), "-id", "w1"}, extra...)...)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- runWorker(ctx, c) }()
		return cancel, done
	}

	before := linkLosses()
	cancel, done := start()
	select {
	case <-hellos:
	case err := <-done:
		t.Fatalf("clean worker exited: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("clean worker never said hello")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("clean worker: %v", err)
	}
	if got := linkLosses(); got != before {
		t.Fatalf("clean worker lost its link %d times", got-before)
	}

	cancel, done = start("-chaos-drop", "1", "-chaos-max-faults", "1")
	defer cancel()
	deadline := time.After(10 * time.Second)
	for linkLosses() == before {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("chaos worker exited cleanly")
			}
			return // the injected fault failed the join
		case <-deadline:
			t.Fatal("-chaos-drop 1 injected no fault on the worker's link")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
}

// TestSchedSavesStateAfterTimedOutDrain: a drain that outlasts
// -drain-timeout still snapshots the backlog it settled. One run sleeps
// through the drain; the three queued behind it were cancelled by it and
// are restorable, so the saved state holds exactly those three.
func TestSchedSavesStateAfterTimedOutDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	state := t.TempDir()
	c := mustParse(t, "sched", "-workers", "1", "-drain-timeout", "50ms", "-state", state, "-telemetry-addr", addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- runSched(ctx, c) }()

	base := "http://" + addr + "/sched/"
	submit := func(query string) string {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			resp, err := http.Post(base+"submit?tenant=t&trace=small&"+query, "", nil)
			if err != nil && time.Now().Before(deadline) {
				continue // not serving yet
			}
			if err != nil {
				t.Fatal(err)
			}
			var st sched.RunStatus
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
				t.Fatalf("submit %s: %d %s", query, resp.StatusCode, body)
			}
			return st.ID
		}
	}
	regrids := func() uint64 {
		if series := telemetry.Default.Snapshot().Find("pragma_core_regrid_seconds"); len(series) > 0 {
			return series[0].Count
		}
		return 0
	}
	before := regrids()
	slow := submit("regrid-delay-ms=500")
	// Once its first regrid is done the run sleeps through its second, so
	// the drain below cannot end within 50ms.
	for deadline := time.Now().Add(10 * time.Second); regrids() == before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never finished a regrid", slow)
		}
	}
	var queued []string
	for i := 0; i < 3; i++ {
		queued = append(queued, submit(fmt.Sprintf("procs=%d", 4+i)))
	}

	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("drain of a run sleeping 500ms finished within 50ms")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sched did not return after its drain timed out")
	}
	_, payload, err := (&checkpoint.Store{Dir: state}).Latest(nil)
	if err != nil {
		t.Fatalf("no state saved after the timed-out drain: %v", err)
	}
	doc, err := checkpoint.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Runs []sched.SnapshotRun }
	if err := json.Unmarshal(doc, &snap); err != nil {
		t.Fatal(err)
	}
	var saved []string
	for _, r := range snap.Runs {
		saved = append(saved, r.ID)
		if r.State != sched.StateCancelled {
			t.Errorf("%s saved as %s, want cancelled", r.ID, r.State)
		}
	}
	if !slices.Equal(saved, queued) {
		t.Fatalf("saved runs %v, want the queued %v", saved, queued)
	}
}

// TestSchedKeepsStateWhenServeFails: a sched node that restores a snapshot
// and then cannot serve (its telemetry address is taken) returns the error
// and saves nothing. The runs it restored may already be running, so a
// snapshot taken then would leave them out and, as the latest, hide the
// one that holds them.
func TestSchedKeepsStateWhenServeFails(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	state := t.TempDir()
	doc, err := json.Marshal(map[string]any{
		"schema": sched.SnapshotSchema,
		"runs":   []sched.SnapshotRun{{ID: "run-000007", Tenant: "t", State: sched.StateQueued, Wire: map[string][]string{"trace": {"small"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const seq = 3
	payload := checkpoint.Encode(doc)
	store := &checkpoint.Store{Dir: state}
	if _, err := store.Save(seq, payload); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	c := mustParse(t, "sched", "-workers", "1", "-state", state, "-telemetry-addr", taken.Addr().String())
	if err := runSched(context.Background(), c); err == nil {
		t.Fatal("sched served on a taken telemetry address")
	}
	gotSeq, got, err := (&checkpoint.Store{Dir: state}).Latest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq || !bytes.Equal(got, payload) {
		t.Fatalf("latest state is snapshot %d (%d bytes), want the restored snapshot %d unchanged", gotSeq, len(got), seq)
	}
}

// TestReplayPrintsSummary pins what replay prints for the small trace on
// four procs: the replay's three summary lines.
func TestReplayPrintsSummary(t *testing.T) {
	c := mustParse(t, "replay", "-trace", "small", "-procs", "4")
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = replay(c)
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	want := `replaying small trace (41 snapshots) with adaptive on 4 procs
simulated run-time 103.0s  compute 96.1s  comm 8.7s  partition 0.02s  migration 0.26s
max imbalance 17.8%  avg 5.9%  switches 5  steps 164
`
	if string(out) != want {
		t.Fatalf("replay printed\n%s\nwant\n%s", out, want)
	}
}
