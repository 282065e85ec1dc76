// Command pragma-node runs one process of a Pragma deployment. Each
// subcommand is one process role with its own flags: broker, node, replay,
// sched, router and worker (pragma-node with no arguments lists them, and
// pragma-node SUBCOMMAND -h its flags). All six take -telemetry-addr and
// -run-for; a flag the subcommand does not read is a usage error, exit 2.
//
// A control network: the broker serves the Message Center and the ADM;
// each node joins it as a component agent. A node whose load crosses the
// overload threshold fires an event, and the ADM queries the policy base
// and broadcasts a repartition command that every node's actuator prints:
//
//	pragma-node broker -serve 127.0.0.1:7070
//	pragma-node node -join 127.0.0.1:7070 -id node-1 -load 0.9
//
// Crash recovery, rehearsed on one replay:
//
//	pragma-node replay -checkpoint-dir ./ckpt -crash-at 8   # dies mid-run
//	pragma-node replay -checkpoint-dir ./ckpt -resume       # picks it up
//
// The multi-tenant run scheduler serves submit/status/drain on the telemetry
// address. On SIGINT or SIGTERM its in-flight runs checkpoint at their next
// regrid boundary and report as resumable:
//
//	pragma-node sched -workers 4 -telemetry-addr 127.0.0.1:9090 -checkpoint-root ./runs
//	curl -X POST 'http://127.0.0.1:9090/sched/submit?tenant=acme&name=run1'
//
// A fleet: a router owns the message center and a fleet-wide /sched/, and
// workers execute the runs it dispatches. Runs checkpoint under the shared
// root, so a killed worker's runs resume on survivors:
//
//	pragma-node router -serve 127.0.0.1:7070 -telemetry-addr 127.0.0.1:9090 -checkpoint-root ./fleet-runs
//	pragma-node worker -join 127.0.0.1:7070 -id w1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pragma-grid/pragma"
	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/fleet"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// config is one validated pragma-node invocation: the subcommand and every
// flag it reads. Fields a subcommand does not read stay zero.
type config struct {
	cmd           string
	telemetryAddr string
	runFor        time.Duration

	addr                                                   string // -serve (broker, router) or -join (node, worker)
	interval, heartbeatTimeout, writeTimeout, drainTimeout time.Duration
	checkpointRoot                                         string

	// node and worker
	id                     string
	heartbeat              time.Duration
	reconnect              bool
	chaos                  pragma.ChaosConfig
	load, wobble, overload float64
	slots                  int

	// replay
	replay        fleet.WireSpec
	crashAt       int
	telemetryHold time.Duration

	// sched
	workers, queue, tenantLimit int
	state                       string
}

// A command is one subcommand: the flags it reads and the mode it runs.
type command struct {
	name, summary string
	flags         func(*flag.FlagSet, *config)
	run           func(context.Context, config) error
}

var commands = []command{
	{"broker", "serve the Message Center and the ADM", brokerFlags, withTelemetry(runBroker)},
	{"node", "join a broker as a component agent with a synthetic load sensor", nodeFlags, withTelemetry(runNode)},
	{"replay", "replay an adaptation trace with checkpoint/restart", replayFlags, withTelemetry(runReplay)},
	{"sched", "serve the multi-tenant run scheduler on the telemetry address", schedFlags, runSched},
	{"router", "serve a fleet router: a Message Center plus a fleet-wide /sched/", routerFlags, runRouter},
	{"worker", "join a fleet router and execute the runs it dispatches", workerFlags, runWorker},
}

func lookup(name string) (command, bool) {
	for _, cmd := range commands {
		if cmd.name == name {
			return cmd, true
		}
	}
	return command{}, false
}

func brokerFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.addr, "serve", "", "serve the Message Center and ADM on this address (required)")
	fs.DurationVar(&c.interval, "interval", time.Second, "ADM report interval")
	centerFlags(fs, c)
}

func nodeFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.addr, "join", "", "join the Message Center served on this address (required)")
	fs.Float64Var(&c.load, "load", 0.3, "base synthetic load of this node")
	fs.Float64Var(&c.wobble, "wobble", 0.15, "load oscillation amplitude")
	fs.Float64Var(&c.overload, "overload", 0.8, "load threshold that fires an overload event")
	fs.DurationVar(&c.interval, "interval", time.Second, "agent poll interval")
	linkFlags(fs, c)
}

func replayFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.replay.Trace, "trace", "small", "RM3D trace configuration (small|paper)")
	fs.StringVar(&c.replay.Scenario, "scenario", "", "composed scenario spec instead of the RM3D trace, e.g. \"seed=7;shock:8,block:6\" (see internal/scenario)")
	fs.StringVar(&c.replay.Strategy, "strategy", "adaptive", "adaptive|system-sensitive|proactive or a partitioner name (SFC, G-MISP+SP, ...)")
	fs.IntVar(&c.replay.Procs, "procs", 8, "processor count")
	fs.StringVar(&c.replay.CheckpointDir, "checkpoint-dir", "", "persist run state here at regrid boundaries")
	fs.IntVar(&c.replay.CheckpointEvery, "checkpoint-every", 1, "checkpoint after every k-th regrid")
	fs.BoolVar(&c.replay.Resume, "resume", false, "continue from the latest valid checkpoint in -checkpoint-dir")
	fs.IntVar(&c.crashAt, "crash-at", 0, "inject a crash at the n-th regrid (rehearsal; 0 disables)")
	fs.DurationVar(&c.telemetryHold, "telemetry-hold", 0, "keep the telemetry endpoint alive this long after the replay finishes (for scraping)")
}

func schedFlags(fs *flag.FlagSet, c *config) {
	fs.IntVar(&c.workers, "workers", 4, "pool workers: runs executing at once")
	fs.IntVar(&c.queue, "queue", 64, "admission queue limit (submissions beyond it are rejected)")
	fs.IntVar(&c.tenantLimit, "tenant-limit", 8, "max queued+running runs per tenant (0 = unlimited)")
	fs.StringVar(&c.checkpointRoot, "checkpoint-root", "", "checkpoint named runs under <root>/<tenant>/<name> so drained runs are resumable")
	fs.StringVar(&c.state, "state", "", "snapshot the queued and drained backlog into this directory on drain and restore it on boot, so a process roll loses no submitted run")
	drainFlag(fs, c)
}

func routerFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.addr, "serve", "", "serve the Message Center workers join on this address (required)")
	fs.StringVar(&c.checkpointRoot, "checkpoint-root", "", "default submitted runs to checkpoint under <root>/<run-id> (shared storage) so failover can resume them")
	centerFlags(fs, c)
	drainFlag(fs, c)
}

func workerFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.addr, "join", "", "join the router's Message Center on this address (required)")
	fs.IntVar(&c.slots, "slots", 2, "concurrent run slots advertised to the router")
	linkFlags(fs, c)
	drainFlag(fs, c)
}

// centerFlags are the served Message Center's robustness knobs.
func centerFlags(fs *flag.FlagSet, c *config) {
	fs.DurationVar(&c.heartbeatTimeout, "heartbeat-timeout", 5*time.Second, "evict clients silent this long (0 disables)")
	fs.DurationVar(&c.writeTimeout, "write-timeout", 5*time.Second, "wire write deadline (0 disables)")
}

// linkFlags shape a joining process's link to the broker, fault injection
// included.
func linkFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.id, "id", "node-0", "identity on the control network")
	fs.DurationVar(&c.heartbeat, "heartbeat", time.Second, "ping the broker this often (0 disables)")
	fs.BoolVar(&c.reconnect, "reconnect", true, "reconnect with backoff and replay state after link loss")
	fs.Float64Var(&c.chaos.DropRate, "chaos-drop", 0, "inject: per-op connection drop probability")
	fs.Float64Var(&c.chaos.CorruptRate, "chaos-corrupt", 0, "inject: per-write byte corruption probability")
	fs.DurationVar(&c.chaos.Latency, "chaos-latency", 0, "inject: fixed latency per wire op")
	fs.DurationVar(&c.chaos.Jitter, "chaos-jitter", 0, "inject: random extra latency per wire op")
	fs.Int64Var(&c.chaos.Seed, "chaos-seed", 1, "inject: fault RNG seed")
	fs.IntVar(&c.chaos.MaxFaults, "chaos-max-faults", 0, "inject: total fault budget, 0 = unlimited")
}

func drainFlag(fs *flag.FlagSet, c *config) {
	fs.DurationVar(&c.drainTimeout, "drain-timeout", time.Minute, "how long shutdown waits for in-flight runs to reach a regrid boundary")
}

// flagSet registers cmd's flags, with their defaults, on c.
func flagSet(cmd command, c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("pragma-node "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&c.telemetryAddr, "telemetry-addr", "", "serve /metrics, /healthz, /readyz and /debug/pragma on this address")
	fs.DurationVar(&c.runFor, "run-for", 0, "exit after this duration (0 = until interrupted)")
	cmd.flags(fs, c)
	return fs
}

// parse reads one invocation, subcommand first, and validates it.
func parse(args []string) (config, error) {
	if len(args) == 0 {
		return config{}, errors.New("missing subcommand")
	}
	cmd, ok := lookup(args[0])
	if !ok {
		return config{}, fmt.Errorf("unknown subcommand %q", args[0])
	}
	c := config{cmd: cmd.name}
	fs := flagSet(cmd, &c)
	if err := fs.Parse(args[1:]); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return c, c.validate(fs)
}

// validate rejects the values the modes cannot run with. Each rule names
// a flag and applies when the subcommand reads that flag.
func (c config) validate(fs *flag.FlagSet) error {
	var errs []error
	check := func(name string, bad bool, rule string) {
		if bad && fs.Lookup(name) != nil {
			errs = append(errs, fmt.Errorf("-%s %s", name, rule))
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		d, ok := f.Value.(flag.Getter).Get().(time.Duration)
		check(f.Name, ok && d < 0, "must not be negative")
	})
	for _, n := range []struct {
		name string
		v    int
	}{{"workers", c.workers}, {"slots", c.slots}, {"procs", c.replay.Procs}, {"queue", c.queue}, {"checkpoint-every", c.replay.CheckpointEvery}} {
		check(n.name, n.v < 1, "must be at least 1")
	}
	check("tenant-limit", c.tenantLimit < 0, "must not be negative")
	check("chaos-drop", !(c.chaos.DropRate >= 0 && c.chaos.DropRate <= 1), "must lie in [0, 1]")
	check("chaos-corrupt", !(c.chaos.CorruptRate >= 0 && c.chaos.CorruptRate <= 1), "must lie in [0, 1]")
	check("serve", c.addr == "", "is required")
	check("join", c.addr == "", "is required")
	check("interval", c.interval == 0, "must be positive")
	check("telemetry-addr", (c.cmd == "sched" || c.cmd == "router") && c.telemetryAddr == "", "is required: "+c.cmd+" serves /sched/ on it")
	check("resume", c.replay.Resume && c.replay.CheckpointDir == "", "needs -checkpoint-dir")
	check("telemetry-hold", c.telemetryHold > 0 && c.telemetryAddr == "", "needs -telemetry-addr")
	return errors.Join(errs...)
}

// usage prints cmd's flags, or the subcommand list when cmd names none.
func usage(w io.Writer, name string) {
	if cmd, ok := lookup(name); ok {
		fmt.Fprintf(w, "usage: pragma-node %s [flags]\n\n%s.\n\n", cmd.name, cmd.summary)
		fs := flagSet(cmd, &config{})
		fs.SetOutput(w)
		fs.PrintDefaults()
		return
	}
	fmt.Fprintln(w, "usage: pragma-node <subcommand> [flags]\n\nsubcommands:")
	for _, cmd := range commands {
		fmt.Fprintf(w, "  %-7s %s\n", cmd.name, cmd.summary)
	}
	fmt.Fprintln(w, "\nRun 'pragma-node <subcommand> -h' for its flags.")
}

func main() { os.Exit(runMain(os.Args[1:], os.Stderr)) }

// runMain runs one invocation and returns its exit code: 2 for a usage
// error, 1 for a mode that failed.
func runMain(args []string, stderr io.Writer) int {
	c, err := parse(args)
	if errors.Is(err, flag.ErrHelp) {
		usage(os.Stdout, c.cmd)
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "pragma-node:", err)
		usage(stderr, c.cmd)
		return 2
	}
	// SIGTERM is what container orchestrators send first; treat it exactly
	// like Ctrl-C so both paths end in a graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if c.runFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.runFor)
		defer cancel()
	}
	cmd, _ := lookup(c.cmd)
	if err := cmd.run(ctx, c); err != nil {
		fmt.Fprintln(stderr, "pragma-node:", err)
		return 1
	}
	return 0
}

// startTelemetry serves the telemetry mux on -telemetry-addr, with ready
// behind /readyz and api, when non-nil, under /sched/. Without an address
// it serves nothing. stop closes the server.
func startTelemetry(c config, ready func() error, api http.Handler) (stop func(), err error) {
	if c.telemetryAddr == "" {
		return func() {}, nil
	}
	mux := telemetry.NewHandler(telemetry.Default, telemetry.DefaultTracer, ready)
	if api != nil {
		mux.Handle("/sched/", api)
	}
	srv, err := telemetry.ServeHandler(c.telemetryAddr, mux)
	if err != nil {
		return nil, err
	}
	fmt.Printf("telemetry on http://%s/metrics\n", srv.Addr())
	return func() { srv.Close() }, nil
}

// withTelemetry serves telemetry, always ready, around a mode that has
// nothing to drain.
func withTelemetry(run func(context.Context, config) error) func(context.Context, config) error {
	return func(ctx context.Context, c config) error {
		stop, err := startTelemetry(c, nil, nil)
		if err != nil {
			return err
		}
		defer stop()
		return run(ctx, c)
	}
}

// drainable is the lifecycle a serving subcommand runs: the scheduler, the
// fleet router or the fleet worker.
type drainable interface {
	Draining() bool
	Stopped() <-chan struct{}
	Drain(context.Context) error
}

// serveUntilDrained is the serving loop of sched, router and worker: it
// serves telemetry with l's drain state as /readyz (503 while draining,
// /healthz stays 200), waits for a signal or for l to stop on its own (a
// remote drain), drains l under -drain-timeout and prints the drained line.
func serveUntilDrained(ctx context.Context, c config, l drainable, api http.Handler, drained func() string) error {
	ready := func() error {
		if l.Draining() {
			return errors.New(c.cmd + " draining")
		}
		return nil
	}
	stop, err := startTelemetry(c, ready, api)
	if err != nil {
		return err
	}
	defer stop()
	select {
	case <-ctx.Done():
	case <-l.Stopped():
	}
	dctx, cancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer cancel()
	if err := l.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println(drained())
	return nil
}

// runSched serves the multi-tenant run scheduler. With -state it restores
// the previous process's backlog at boot and snapshots its own once a drain
// has begun, whether or not the drain finished in time.
func runSched(ctx context.Context, c config) error {
	events := pragma.NewRunEventHub(pragma.RunEventHubConfig{})
	defer events.Close()
	s := pragma.NewScheduler(pragma.SchedulerConfig{
		Workers:     c.workers,
		QueueLimit:  c.queue,
		TenantLimit: c.tenantLimit,
		Events:      events,
	})
	// One path from submit parameters to a spec, shared with the fleet
	// (fleet.SpecFromValues documents them); name=NAME checkpoints the run
	// under <root>/<tenant>/<NAME>.
	build := fleet.SpecBuilder(c.checkpointRoot, fleet.DefaultMaterializer())
	var store *checkpoint.Store
	seq := 0
	if c.state != "" {
		store = &checkpoint.Store{Dir: c.state}
		// A missing snapshot is a fresh start, not an error.
		var payload []byte
		var err error
		seq, payload, err = store.Latest(nil)
		switch {
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
		case err != nil:
			return fmt.Errorf("restore scheduler state: %w", err)
		default:
			restored, err := s.Restore(payload, build)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pragma-node: restore (snapshot %d): %v\n", seq, err)
			}
			fmt.Printf("restored %d runs from %s (snapshot %d)\n", restored, c.state, seq)
		}
	}
	fmt.Printf("scheduler ready with %d workers; submit runs, interrupt to drain\n", c.workers)
	err := serveUntilDrained(ctx, c, s, pragma.NewSchedulerHandler(s, build), func() string {
		st := s.Stats()
		return fmt.Sprintf("scheduler drained: %d done, %d drained (resumable), %d cancelled, %d failed",
			st.Done, st.Drained, st.Cancelled, st.Failed)
	})
	// A serve that failed to start has not drained: its restored runs may
	// be running, and a snapshot would miss them. Keep the previous one.
	if store != nil && s.Draining() {
		err = errors.Join(err, saveState(s, store, seq+1))
	}
	return err
}

// saveState persists the scheduler's restorable backlog so the next boot
// re-admits it: drained runs resume from their checkpoints, cancelled
// queued runs start fresh. After a timed-out drain the runs still running
// are not in it.
func saveState(s *pragma.Scheduler, store *checkpoint.Store, seq int) error {
	data, skipped, err := s.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	// Close syncs the snapshot: it is saved once Close succeeds.
	_, err = store.Save(seq, data)
	if err = errors.Join(err, store.Close()); err != nil {
		return fmt.Errorf("save state: %w", err)
	}
	fmt.Printf("scheduler state saved to %s (%d runs not serializable, %d still running and not captured)\n",
		store.Dir, skipped, s.Stats().Active)
	return nil
}

// runRouter serves a fleet router on its own Message Center.
func runRouter(ctx context.Context, c config) error {
	center, ln, err := serveCenter(c)
	if err != nil {
		return err
	}
	defer ln.Close()
	events := pragma.NewRunEventHub(pragma.RunEventHubConfig{})
	defer events.Close()
	r, err := fleet.NewRouter(fleet.Config{
		Port:             center,
		HeartbeatTimeout: c.heartbeatTimeout,
		Events:           events,
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		},
	})
	if err != nil {
		return err
	}
	r.AttachCenter(center)
	fmt.Println("fleet router ready; join workers with: pragma-node worker -join ADDR")
	return serveUntilDrained(ctx, c, r, fleet.Handler(r, c.checkpointRoot), func() string {
		st := r.Stats()
		return fmt.Sprintf("fleet drained: %d done, %d drained (resumable), %d cancelled, %d failed, %d failovers",
			st.Done, st.Drained, st.Cancelled, st.Failed, st.Failovers)
	})
}

// runWorker joins the control network as a fleet worker: it executes runs
// the router dispatches until interrupted or the router drains it.
func runWorker(ctx context.Context, c config) error {
	client, err := pragma.DialMessageCenter(c.addr, dialOptions(c)...)
	if err != nil {
		return err
	}
	defer client.Close()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Port:           client,
		ID:             c.id,
		Slots:          c.slots,
		HeartbeatEvery: c.heartbeat,
		OnError: func(err error) {
			fmt.Fprintf(os.Stderr, "[%s] fleet: %v\n", c.id, err)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("fleet worker %s joined %s (%d slots)\n", c.id, c.addr, c.slots)
	return serveUntilDrained(ctx, c, w, nil, func() string { return "fleet worker " + c.id + " drained" })
}

// dialOptions is how node and worker dial the broker: the link's
// reconnect and heartbeat policy, its errors on stderr, and the -chaos-*
// fault injector when any fault is asked for.
func dialOptions(c config) []pragma.DialOption {
	opts := []pragma.DialOption{
		pragma.WithReconnect(c.reconnect),
		pragma.WithHeartbeat(c.heartbeat),
		pragma.WithErrorHandler(func(err error) {
			fmt.Fprintf(os.Stderr, "[%s] link: %v\n", c.id, err)
		}),
	}
	if ch := c.chaos; ch.DropRate > 0 || ch.CorruptRate > 0 || ch.Latency > 0 || ch.Jitter > 0 {
		opts = append(opts, pragma.WithDialer(pragma.ChaosDialer(ch)))
	}
	return opts
}

// serveCenter starts a Message Center serving TCP clients on -serve.
func serveCenter(c config) (*pragma.MessageCenter, net.Listener, error) {
	center := pragma.NewMessageCenter(
		pragma.WithHeartbeatTimeout(c.heartbeatTimeout),
		pragma.WithCenterWriteTimeout(c.writeTimeout),
		pragma.WithCenterErrorHandler(func(err error) {
			fmt.Fprintf(os.Stderr, "broker: %v\n", err)
		}))
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return nil, nil, err
	}
	pragma.RegisterQueueDepthGauge(center)
	go center.Serve(ln)
	fmt.Printf("message center listening on %s\n", ln.Addr())
	return center, ln, nil
}

func runBroker(ctx context.Context, c config) error {
	center, ln, err := serveCenter(c)
	if err != nil {
		return err
	}
	defer ln.Close()

	adm, err := pragma.NewADM("adm", center, pragma.Table2Policy())
	if err != nil {
		return err
	}
	ticker := time.NewTicker(c.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Println("broker shutting down")
			return nil
		case <-ticker.C:
			adm.Absorb()
			cons := adm.Consolidate()
			if cons.Agents == 0 {
				fmt.Println("no agents yet")
				continue
			}
			fmt.Printf("agents=%d mean-load=%.2f max-load=%.2f (%s)\n",
				cons.Agents, cons.Mean["load"], cons.Max["load"], cons.ArgMax["load"])
			events := adm.PendingEvents()
			for _, ev := range events {
				fmt.Printf("EVENT %s from %s (%s=%.2f)\n", ev.Name, ev.Agent, ev.Sensor, ev.Value)
			}
			if len(events) > 0 {
				// An overload is a high-dynamics communication-dominated
				// situation for the running application: query the policy
				// base and direct everyone to repartition.
				if act, ok := pragma.Table2Policy().BestAction("select-partitioner",
					map[string]interface{}{"octant": "VI"}); ok {
					fmt.Printf("policy: repartition with %s\n", act.Target)
				}
				if err := adm.Broadcast(pragma.Command{
					Actuator: "repartition",
					Params:   map[string]float64{"granularity": 8},
				}); err != nil {
					fmt.Fprintf(os.Stderr, "broadcast: %v\n", err)
				}
			}
		}
	}
}

func runNode(ctx context.Context, c config) error {
	client, err := pragma.DialMessageCenter(c.addr, dialOptions(c)...)
	if err != nil {
		return err
	}
	defer client.Close()
	start := time.Now()
	sensor := pragma.SensorFunc{SensorName: "load", Fn: func() (float64, error) {
		l := c.load + c.wobble*math.Sin(time.Since(start).Seconds()/7)
		return min(max(l, 0), 0.99), nil
	}}
	actuator := pragma.ActuatorFunc{ActuatorName: "repartition", Fn: func(p map[string]float64) error {
		fmt.Printf("[%s] repartitioning with %v\n", c.id, p)
		return nil
	}}
	agent, err := pragma.NewComponentAgent(c.id, client,
		[]pragma.Sensor{sensor},
		[]pragma.Actuator{actuator},
		[]pragma.EventRule{{Sensor: "load", Above: &c.overload, Event: "overload"}})
	if err != nil {
		return err
	}
	agent.OnError = func(err error) {
		fmt.Fprintf(os.Stderr, "[%s] agent: %v\n", c.id, err)
	}
	fmt.Printf("agent %s joined %s (base load %.2f)\n", c.id, c.addr, c.load)
	agent.Run(ctx, c.interval)
	fmt.Printf("agent %s leaving\n", c.id)
	return nil
}

// runReplay replays one run through the materializer every serving mode
// uses, so replay -scenario S and a submit of scenario=S are the same run.
// -crash-at injects a deterministic crash at that regrid so operators can
// rehearse the -resume path without kill -9.
func runReplay(ctx context.Context, c config) error {
	if err := replay(c); err != nil {
		return err
	}
	if c.telemetryHold > 0 {
		fmt.Printf("holding the telemetry endpoint for %s\n", c.telemetryHold)
		select {
		case <-ctx.Done():
		case <-time.After(c.telemetryHold):
		}
	}
	return nil
}

func replay(c config) error {
	ws := c.replay
	spec, err := fleet.DefaultMaterializer()(ws)
	if err != nil {
		return err
	}
	traceLabel := ws.Trace
	if ws.Scenario != "" {
		sc, err := pragma.ParseScenario(ws.Scenario)
		if err != nil {
			return err
		}
		traceLabel = sc.Name
		for _, exp := range sc.Trajectory() {
			if exp.Known {
				fmt.Printf("phase %s (snapshots %d-%d): expected octant %v\n",
					exp.Phase, exp.Start, exp.End-1, exp.Octant)
			} else {
				fmt.Printf("phase %s (snapshots %d-%d): mixed signature\n",
					exp.Phase, exp.Start, exp.End-1)
			}
		}
	}
	if c.crashAt > 0 {
		spec.Strategy = fleet.BeforeAssign(spec.Strategy, (&chaos.FaultPoint{FailAt: c.crashAt}).Check)
	}
	resuming := ""
	if ws.Resume {
		resuming = ", resuming from " + ws.CheckpointDir
	}
	fmt.Printf("replaying %s trace (%d snapshots) with %s on %d procs%s\n",
		traceLabel, len(spec.Trace.Snapshots), spec.Strategy.Name(), spec.NProcs, resuming)
	res, err := core.Run(spec.Trace, spec.Strategy, core.RunConfig{
		Machine: spec.Machine, NProcs: spec.NProcs, WorkModel: spec.WorkModel,
		CheckpointDir: spec.CheckpointDir, CheckpointEvery: spec.CheckpointEvery, Resume: spec.Resume,
	})
	if errors.Is(err, chaos.ErrInjectedCrash) {
		fmt.Printf("injected crash at regrid %d; checkpoints are in %s — rerun with -resume\n",
			c.crashAt, ws.CheckpointDir)
		return err
	}
	if err != nil {
		return err
	}
	fmt.Printf("simulated run-time %.1fs  compute %.1fs  comm %.1fs  partition %.2fs  migration %.2fs\n",
		res.TotalTime, res.ComputeTime, res.CommTime, res.PartitionTime, res.MigrationTime)
	fmt.Printf("max imbalance %.1f%%  avg %.1f%%  switches %d  steps %d\n",
		res.MaxImbalance, res.AvgImbalance, res.Switches, res.Steps)
	return nil
}
