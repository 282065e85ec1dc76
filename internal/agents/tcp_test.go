package agents

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/policy"
)

// startCenter serves a Message Center on a loopback listener.
func startCenter(t *testing.T) (*Center, string) {
	t.Helper()
	return startCenterOpts(t)
}

// startCenterOpts serves a Message Center built with the given options.
func startCenterOpts(t *testing.T, opts ...CenterOption) (*Center, string) {
	t.Helper()
	c := NewCenter(opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return c, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func recvT(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("mailbox closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for message")
	}
	return Message{}
}

func TestTCPRemoteToLocal(t *testing.T) {
	center, addr := startCenter(t)
	local, err := center.Register("local", 8)
	if err != nil {
		t.Fatal(err)
	}
	cl := dialT(t, addr)
	if _, err := cl.Register("remote", 8); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(Message{From: "remote", To: "local", Kind: "hello"}); err != nil {
		t.Fatal(err)
	}
	m := recvT(t, local)
	if m.Kind != "hello" || m.From != "remote" {
		t.Fatalf("received %+v", m)
	}
}

func TestTCPLocalToRemote(t *testing.T) {
	center, addr := startCenter(t)
	cl := dialT(t, addr)
	remote, err := cl.Register("remote", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := center.Send(Message{From: "srv", To: "remote", Kind: "task"}); err != nil {
		t.Fatal(err)
	}
	m := recvT(t, remote)
	if m.Kind != "task" {
		t.Fatalf("received %+v", m)
	}
}

func TestTCPRemoteToRemote(t *testing.T) {
	_, addr := startCenter(t)
	c1 := dialT(t, addr)
	c2 := dialT(t, addr)
	if _, err := c1.Register("n1", 8); err != nil {
		t.Fatal(err)
	}
	in2, err := c2.Register("n2", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(Message{From: "n1", To: "n2", Kind: "x", Payload: Encode(42)}); err != nil {
		t.Fatal(err)
	}
	m := recvT(t, in2)
	var v int
	if err := Decode(m, &v); err != nil || v != 42 {
		t.Fatalf("payload %v err %v", v, err)
	}
}

func TestTCPPubSubAcrossNodes(t *testing.T) {
	center, addr := startCenter(t)
	cl := dialT(t, addr)
	remoteIn, err := cl.Register("rsub", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Subscribe("rsub", "events"); err != nil {
		t.Fatal(err)
	}
	localIn, err := center.Register("lsub", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := center.Subscribe("lsub", "events"); err != nil {
		t.Fatal(err)
	}
	// Publish from the remote side; both local and remote subscribers get it.
	if err := cl.Publish(Message{From: "rsub2", Topic: "events", Kind: "boom"}); err != nil {
		t.Fatal(err)
	}
	if m := recvT(t, remoteIn); m.Kind != "boom" {
		t.Fatalf("remote got %+v", m)
	}
	if m := recvT(t, localIn); m.Kind != "boom" {
		t.Fatalf("local got %+v", m)
	}
}

func TestTCPDuplicateRegistrationRejected(t *testing.T) {
	center, addr := startCenter(t)
	if _, err := center.Register("dup", 4); err != nil {
		t.Fatal(err)
	}
	cl := dialT(t, addr)
	if _, err := cl.Register("dup", 4); err == nil {
		t.Fatal("remote registration over existing local port accepted")
	}
	// A different port still works on the same connection.
	if _, err := cl.Register("dup2", 4); err != nil {
		t.Fatal(err)
	}
}

func TestTCPDisconnectCleansUp(t *testing.T) {
	center, addr := startCenter(t)
	cl := dialT(t, addr)
	if _, err := cl.Register("ghost", 4); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	// After the disconnect the port eventually disappears from the broker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := center.Send(Message{From: "x", To: "ghost", Kind: "y"}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ghost port still routable after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPUnregister(t *testing.T) {
	center, addr := startCenter(t)
	cl := dialT(t, addr)
	in, err := cl.Register("p", 4)
	if err != nil {
		t.Fatal(err)
	}
	cl.Unregister("p")
	if _, ok := <-in; ok {
		t.Fatal("mailbox not closed on unregister")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := center.Send(Message{From: "x", To: "p", Kind: "y"}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("port still routable after unregister")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDistributedControlNetwork is the multi-node emulation scenario of
// §4.7: component agents on two "nodes" (TCP clients) publish state to the
// message center; the ADM (local to the broker) consolidates, queries the
// policy base, and directs the remote agents, whose actuators fire.
func TestDistributedControlNetwork(t *testing.T) {
	center, addr := startCenter(t)
	adm, err := NewADM("adm", center, policy.Table2())
	if err != nil {
		t.Fatal(err)
	}

	type node struct {
		client *Client
		agent  *ComponentAgent
		fired  chan Command
	}
	mkNode := func(id string, load float64) *node {
		cl := dialT(t, addr)
		fired := make(chan Command, 4)
		ca, err := NewComponentAgent(id, cl,
			[]Sensor{fixedSensor("load", load)},
			[]Actuator{ActuatorFunc{ActuatorName: "repartition", Fn: func(p map[string]float64) error {
				fired <- Command{Actuator: "repartition", Params: p}
				return nil
			}}},
			nil)
		if err != nil {
			t.Fatal(err)
		}
		return &node{client: cl, agent: ca, fired: fired}
	}
	n1 := mkNode("node-1", 0.3)
	n2 := mkNode("node-2", 0.85)

	for _, n := range []*node{n1, n2} {
		if _, err := n.agent.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	// State flows over TCP to the broker-side ADM.
	deadline := time.Now().Add(5 * time.Second)
	for adm.Absorb(); ; {
		if adm.Consolidate().Agents == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ADM saw %d agents", adm.Consolidate().Agents)
		}
		time.Sleep(time.Millisecond)
		adm.Absorb()
	}
	cons := adm.Consolidate()
	if cons.ArgMax["load"] != "node-2" {
		t.Fatalf("argmax = %v", cons.ArgMax)
	}
	// Policy decision and directive propagation.
	dec := adm.Decide(map[string]interface{}{"octant": "V"}, "select-partitioner")
	if len(dec) != 1 || dec[0].Action.Target != "pBD-ISP" {
		t.Fatalf("decision = %+v", dec)
	}
	if err := adm.Broadcast(Command{Actuator: "repartition", Params: map[string]float64{"procs": 2}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*node{n1, n2} {
		// Commands arrive over TCP; drain until the actuator fires.
		deadline := time.Now().Add(5 * time.Second)
		for {
			n.agent.DrainInbox()
			select {
			case cmd := <-n.fired:
				if cmd.Params["procs"] != 2 {
					t.Fatalf("actuated %+v", cmd)
				}
			default:
				if time.Now().After(deadline) {
					t.Fatalf("%s actuator never fired", n.agent.ID)
				}
				time.Sleep(time.Millisecond)
				continue
			}
			break
		}
	}
}

// ---------------------------------------------------------------------------
// Fault-injection helpers

// faultConn wraps a real TCP connection with test-controlled failures:
// writes that die mid-frame, reads that are cut while the peer side stays
// open (a half-open link), and optional suppression of Close so the
// server keeps the stale registration alive.
type faultConn struct {
	net.Conn
	mu         sync.Mutex
	writeQuota int64 // bytes still allowed; -1 = unlimited
	readsCut   bool
	keepOpen   bool // Close() leaves the underlying conn open
}

func newFaultConn(c net.Conn) *faultConn {
	return &faultConn{Conn: c, writeQuota: -1}
}

// failNextWriteAfter arms a mid-frame failure: the next write delivers
// exactly n bytes to the wire, then the connection dies.
func (f *faultConn) failNextWriteAfter(n int64) {
	f.mu.Lock()
	f.writeQuota = n
	f.mu.Unlock()
}

// cutReads makes all reads fail immediately without touching the peer
// side; keepOpen suppresses Close so the server still sees a live conn.
func (f *faultConn) cutReads(keepOpen bool) {
	f.mu.Lock()
	f.readsCut = true
	f.keepOpen = keepOpen
	f.mu.Unlock()
	// Unblock any read already parked in the kernel.
	f.Conn.SetReadDeadline(time.Now())
}

// hardClose closes the underlying connection regardless of keepOpen.
func (f *faultConn) hardClose() { f.Conn.Close() }

func (f *faultConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	cut := f.readsCut
	f.mu.Unlock()
	if cut {
		return 0, fmt.Errorf("faultconn: reads cut")
	}
	n, err := f.Conn.Read(p)
	f.mu.Lock()
	cut = f.readsCut
	f.mu.Unlock()
	if cut {
		return 0, fmt.Errorf("faultconn: reads cut")
	}
	return n, err
}

func (f *faultConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	quota := f.writeQuota
	f.mu.Unlock()
	if quota < 0 {
		return f.Conn.Write(p)
	}
	if quota > int64(len(p)) {
		f.mu.Lock()
		f.writeQuota -= int64(len(p))
		f.mu.Unlock()
		return f.Conn.Write(p)
	}
	n, _ := f.Conn.Write(p[:quota])
	f.Conn.Close()
	return n, fmt.Errorf("faultconn: write quota exhausted mid-frame")
}

func (f *faultConn) Close() error {
	f.mu.Lock()
	keep := f.keepOpen
	f.mu.Unlock()
	if keep {
		return nil
	}
	return f.Conn.Close()
}

// faultDialer dials real TCP and wraps every connection in a faultConn,
// keeping them accessible to the test in dial order.
type faultDialer struct {
	mu    sync.Mutex
	conns []*faultConn
}

func (d *faultDialer) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fc := newFaultConn(c)
	d.mu.Lock()
	d.conns = append(d.conns, fc)
	d.mu.Unlock()
	return fc, nil
}

func (d *faultDialer) conn(i int) *faultConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[i]
}

func (d *faultDialer) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// ---------------------------------------------------------------------------
// Disconnect / reconnect paths

// TestTCPFaultRecovery drives the client through one injected link
// failure per case and requires full recovery: buffered sends replayed,
// ports re-registered on the same mailbox channel, traffic flowing in
// both directions afterwards.
func TestTCPFaultRecovery(t *testing.T) {
	cases := []struct {
		name  string
		fault func(t *testing.T, fd *faultDialer)
	}{
		{
			// The connection dies with half a frame on the wire: the
			// server must discard the torn frame (and the conn), the
			// client must replay the buffered message after reconnect.
			name: "mid-frame-drop",
			fault: func(t *testing.T, fd *faultDialer) {
				fd.conn(0).failNextWriteAfter(10)
			},
		},
		{
			// A clean drop between frames: the peer sees EOF.
			name: "clean-drop",
			fault: func(t *testing.T, fd *faultDialer) {
				fd.conn(0).hardClose()
			},
		},
		{
			// A half-open link: the client sees the loss, the server
			// does not. Reconnecting immediately races re-registration
			// against the broker's stale registration; the client must
			// retry until liveness eviction reclaims the port.
			name: "half-open-register-race",
			fault: func(t *testing.T, fd *faultDialer) {
				fc := fd.conn(0)
				fc.cutReads(true)
				// The stale server-side conn dies 120ms later — after
				// the first re-registration attempts have raced it.
				go func() {
					time.Sleep(120 * time.Millisecond)
					fc.hardClose()
				}()
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			center, addr := startCenterOpts(t, WithHeartbeatTimeout(400*time.Millisecond))
			sink, err := center.Register("sink-"+tc.name, 64)
			if err != nil {
				t.Fatal(err)
			}
			fd := &faultDialer{}
			cl, err := Dial(addr,
				WithDialer(fd.dial),
				WithReconnect(true),
				WithBackoff(10*time.Millisecond, 100*time.Millisecond),
				WithHeartbeat(50*time.Millisecond),
				WithOpTimeout(3*time.Second),
				WithSeed(7),
				WithErrorHandler(func(error) {}))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			in, err := cl.Register("src", 8)
			if err != nil {
				t.Fatal(err)
			}
			// Baseline: the healthy link delivers.
			if err := cl.Send(Message{From: "src", To: "sink-" + tc.name, Kind: "m-0"}); err != nil {
				t.Fatal(err)
			}
			if m := recvT(t, sink); m.Kind != "m-0" {
				t.Fatalf("baseline got %+v", m)
			}

			tc.fault(t, fd)

			// Sends issued around the failure either go out on the dying
			// conn or are buffered and replayed; none may be lost.
			for i := 1; i <= 3; i++ {
				if err := cl.Send(Message{From: "src", To: "sink-" + tc.name, Kind: fmt.Sprintf("m-%d", i)}); err != nil {
					t.Fatalf("send %d rejected: %v", i, err)
				}
			}
			want := map[string]bool{"m-1": true, "m-2": true, "m-3": true}
			deadline := time.Now().Add(10 * time.Second)
			for len(want) > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("missing messages after recovery: %v", want)
				}
				select {
				case m := <-sink:
					delete(want, m.Kind)
				case <-time.After(50 * time.Millisecond):
				}
			}

			// The reverse direction must come back on the ORIGINAL
			// mailbox channel — re-registration reuses it. Until the
			// broker evicts a stale half-open registration, sends may
			// "succeed" into the dead connection, so retry until a
			// message actually arrives.
			deadline = time.Now().Add(10 * time.Second)
		reverse:
			for {
				if time.Now().After(deadline) {
					t.Fatal("reverse direction never recovered")
				}
				center.Send(Message{From: "sink", To: "src", Kind: "back"})
				select {
				case m := <-in:
					if m.Kind != "back" {
						t.Fatalf("reverse got %+v", m)
					}
					break reverse
				case <-time.After(20 * time.Millisecond):
				}
			}
			// The counter moves just after the last replayed frame is written,
			// which the sink may have seen already: wait for it, do not race it.
			for deadline = time.Now().Add(10 * time.Second); cl.reconnects.Load() < 1; {
				if time.Now().After(deadline) {
					t.Fatalf("Reconnects = %d, want >= 1", cl.reconnects.Load())
				}
				time.Sleep(time.Millisecond)
			}
			if fd.count() < 2 {
				t.Fatalf("dialer used %d conns, want >= 2", fd.count())
			}
		})
	}
}

// TestTCPHeartbeatEviction: the broker evicts clients that stop sending
// frames; heartbeating clients survive arbitrarily long idle periods.
func TestTCPHeartbeatEviction(t *testing.T) {
	center, addr := startCenterOpts(t, WithHeartbeatTimeout(150*time.Millisecond))
	// A silent client: no heartbeats, no traffic after registration.
	lazy := dialT(t, addr)
	if _, err := lazy.Register("lazy", 4); err != nil {
		t.Fatal(err)
	}
	// A heartbeating client with the same traffic pattern.
	alive, err := Dial(addr, WithHeartbeat(40*time.Millisecond), WithErrorHandler(func(error) {}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alive.Close() })
	aliveIn, err := alive.Register("alive", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Well past several eviction windows...
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := center.Send(Message{From: "x", To: "lazy", Kind: "y"}); err != nil {
			break // evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("silent client never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...the heartbeating client is still routable.
	if err := center.Send(Message{From: "x", To: "alive", Kind: "y"}); err != nil {
		t.Fatalf("heartbeating client evicted: %v", err)
	}
	if m := recvT(t, aliveIn); m.Kind != "y" {
		t.Fatalf("got %+v", m)
	}
	if alive.Degraded() {
		t.Fatal("heartbeating client reports degraded")
	}
	if alive.heartbeatsSent.Load() == 0 {
		t.Fatal("no heartbeats recorded")
	}
}

// TestTCPMailboxOverflowAccounted exercises the drop-on-overflow branch of
// the client read loop: deliveries beyond the mailbox capacity are
// discarded but counted, and in-capacity ones still arrive.
func TestTCPMailboxOverflowAccounted(t *testing.T) {
	center, addr := startCenter(t)
	cl := dialT(t, addr)
	in, err := cl.Register("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 5
	for i := 0; i < sent; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := center.Send(Message{From: "x", To: "tiny", Kind: fmt.Sprintf("m-%d", i)}); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("port tiny never became routable")
			}
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		delivered, drops := cl.delivered.Load(), cl.mailboxDrops.Load()
		if delivered+drops == sent {
			if delivered != 1 || drops != sent-1 {
				t.Fatalf("delivered=%d mailboxDrops=%d, want 1 and %d", delivered, drops, sent-1)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counts stuck at delivered=%d mailboxDrops=%d", delivered, drops)
		}
		time.Sleep(time.Millisecond)
	}
	if m := recvT(t, in); m.Kind != "m-0" {
		t.Fatalf("survivor = %+v, want the first message", m)
	}
}

// TestTCPSendBufferBounded: during an outage the in-flight buffer accepts
// exactly its capacity and then fails fast, with the rejects accounted.
func TestTCPSendBufferBounded(t *testing.T) {
	_, addr := startCenter(t)
	fd := &faultDialer{}
	var lost atomic.Bool
	cl, err := Dial(addr,
		WithDialer(func(a string) (net.Conn, error) {
			if lost.Load() {
				return nil, fmt.Errorf("dial blocked by test")
			}
			return fd.dial(a)
		}),
		WithReconnect(true),
		WithBackoff(20*time.Millisecond, 100*time.Millisecond),
		withSendBuffer(4),
		WithSeed(3),
		WithErrorHandler(func(error) {}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.Register("src", 4); err != nil {
		t.Fatal(err)
	}
	lost.Store(true)
	fd.conn(0).hardClose()
	deadline := time.Now().Add(5 * time.Second)
	for !cl.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("client never noticed the outage")
		}
		// Poke the connection so the writer path sees the failure even
		// if the read loop hasn't yet.
		cl.Send(Message{From: "src", To: "x", Kind: "poke"})
		time.Sleep(time.Millisecond)
	}
	// Fill whatever buffer space the pokes left, then require rejection.
	deadline = time.Now().Add(5 * time.Second)
	var rejected bool
	for time.Now().Before(deadline) {
		if err := cl.Send(Message{From: "src", To: "x", Kind: "fill"}); err != nil {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("sends never hit the bounded buffer limit")
	}
	if cl.bufferRejects.Load() < 1 {
		t.Fatalf("BufferRejects = %d, want >= 1", cl.bufferRejects.Load())
	}
}

// TestTCPUnregisterWhileDelivering: the read loop used to look a mailbox up
// under the lock and send to it after releasing it, so an Unregister or
// Close in between closed the channel under the send and the process
// panicked (seen at the teardown of a fleet benchmark run). Without the
// race detector the window is hit in about one run of six.
func TestTCPUnregisterWhileDelivering(t *testing.T) {
	center, addr := startCenter(t)
	cl := dialT(t, addr)
	// One burst per round, so the connection never queues more than a
	// burst ahead of the next round's register ack.
	burst := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range burst {
			for k := 0; k < 64; k++ {
				center.Send(Message{From: "x", To: "p", Kind: "y"})
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		if _, err := cl.Register("p", 1); err != nil {
			t.Fatal(err)
		}
		burst <- struct{}{}
		cl.Unregister("p")
	}
	close(burst)
	<-done
}

func TestTCPOnDisconnectReportsLostPorts(t *testing.T) {
	center, addr := startCenter(t)
	lost := make(chan []string, 1)
	center.OnDisconnect(func(ports []string) { lost <- ports })
	cl := dialT(t, addr)
	for _, port := range []string{"w1", "w2"} {
		if _, err := cl.Register(port, 4); err != nil {
			t.Fatal(err)
		}
	}
	// The broker learns of a registration asynchronously; wait until both
	// ports route before tearing the link down.
	deadline := time.Now().Add(5 * time.Second)
	for _, port := range []string{"w1", "w2"} {
		for center.Send(Message{From: "x", To: port, Kind: "probe"}) != nil {
			if time.Now().After(deadline) {
				t.Fatalf("port %s never became routable", port)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cl.Close()
	select {
	case ports := <-lost:
		sort.Strings(ports)
		if len(ports) != 2 || ports[0] != "w1" || ports[1] != "w2" {
			t.Fatalf("disconnect reported %v, want [w1 w2]", ports)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no disconnect reported")
	}
}
