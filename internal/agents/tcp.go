package agents

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file adds the distributed deployment of the Message Center: agents
// on other "nodes" (processes, or goroutines emulating them) connect over
// TCP, register their ports with the central broker, and exchange messages
// with local agents transparently. This is the multi-node emulation of the
// paper's agent network: "CATALINA agents resident at each computing
// element in the distributed environment".
//
// Link failure is treated as the common case, not the exception: wire ops
// carry deadlines, clients heartbeat and reconnect with exponential
// backoff, the broker evicts silent connections, and messages sent during
// an outage are buffered (bounded) and replayed after resynchronization.
// See DESIGN.md, "Failure model". The frame format is in frame.go.

// wireConn is the server-side state of one TCP client.
type wireConn struct {
	conn         net.Conn
	wmu          sync.Mutex
	buf          []byte // the frame being written, under wmu
	writeTimeout time.Duration
}

func (w *wireConn) deliver(m Message) error {
	return w.write(frame{Op: "deliver", Msg: m})
}

func (w *wireConn) write(f frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.writeTimeout > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.writeTimeout))
	}
	return writeFrame(w.conn, &w.buf, &f)
}

// writeFrame encodes f into *buf and writes it with one Write, so a frame
// reaches the connection whole or, on a write error, is abandoned with it.
// The caller serializes writes on conn and uses of *buf.
func writeFrame(conn net.Conn, buf *[]byte, f *frame) error {
	b, err := appendFrame((*buf)[:0], f)
	if err != nil {
		return err
	}
	if cap(b) <= maxKeptBuffer {
		*buf = b
	}
	_, err = conn.Write(b)
	return err
}

// connSet tracks the live connections of one Serve loop so they can be
// torn down when the listener closes.
type connSet struct {
	mu     sync.Mutex
	conns  map[*wireConn]struct{}
	closed bool
}

func (s *connSet) add(wc *wireConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[wc] = struct{}{}
	return true
}

func (s *connSet) remove(wc *wireConn) {
	s.mu.Lock()
	delete(s.conns, wc)
	s.mu.Unlock()
}

func (s *connSet) closeAll() {
	s.mu.Lock()
	s.closed = true
	conns := make([]*wireConn, 0, len(s.conns))
	for wc := range s.conns {
		conns = append(conns, wc)
	}
	s.mu.Unlock()
	for _, wc := range conns {
		wc.conn.Close()
	}
}

// Serve accepts TCP clients on the listener and routes their traffic
// through the center until the listener is closed; it then closes every
// live client connection so their handler goroutines terminate instead of
// leaking. Call it in a goroutine:
//
//	ln, _ := net.Listen("tcp", "127.0.0.1:0")
//	go center.Serve(ln)
func (c *Center) Serve(ln net.Listener) error {
	live := &connSet{conns: make(map[*wireConn]struct{})}
	defer live.closeAll()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		wc := &wireConn{conn: conn, writeTimeout: c.writeTimeout}
		if !live.add(wc) {
			conn.Close()
			return fmt.Errorf("agents: serve loop closed")
		}
		go func() {
			c.handle(wc)
			live.remove(wc)
		}()
	}
}

// handleConn serves one raw connection (used by Serve and by fuzz tests
// that feed arbitrary bytes into the protocol).
func (c *Center) handleConn(conn net.Conn) {
	c.handle(&wireConn{conn: conn, writeTimeout: c.writeTimeout})
}

func (c *Center) handle(wc *wireConn) {
	conn := wc.conn
	owned := make(map[string]bool)
	defer func() {
		conn.Close()
		c.mu.Lock()
		lost := make([]string, 0, len(owned))
		for port := range owned {
			delete(c.remote, port)
			for _, subscribers := range c.subs {
				delete(subscribers, port)
			}
			lost = append(lost, port)
		}
		onDisconnect := c.onDisconnect
		c.mu.Unlock()
		if onDisconnect != nil && len(lost) > 0 {
			onDisconnect(lost)
		}
	}()
	fr := frameReader{r: bufio.NewReader(conn)}
	for {
		// The read deadline doubles as liveness eviction: a client that
		// stays silent (no frames, no heartbeats) longer than the
		// heartbeat timeout is disconnected and its ports reclaimed.
		if c.heartbeatTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.heartbeatTimeout))
		}
		var f frame
		if err := fr.read(&f); err != nil {
			var ne net.Error
			if c.heartbeatTimeout > 0 && errors.As(err, &ne) && ne.Timeout() {
				metricHeartbeatMisses.Inc()
				metricEvictions.Inc()
			}
			c.reportErr(fmt.Errorf("agents: wire read: %w", err))
			return
		}
		switch f.Op {
		case "register":
			err := c.registerRemote(f.Port, wc)
			if err == nil {
				owned[f.Port] = true
			}
			wc.write(frame{Op: "register", Port: f.Port, Err: errString(err)})
		case "unregister":
			c.mu.Lock()
			if owned[f.Port] {
				delete(c.remote, f.Port)
				delete(owned, f.Port)
				for _, subscribers := range c.subs {
					delete(subscribers, f.Port)
				}
			}
			c.mu.Unlock()
		case "subscribe":
			err := c.Subscribe(f.Port, f.Topic)
			wc.write(frame{Op: "subscribe", Port: f.Port, Topic: f.Topic, Err: errString(err)})
		case "send":
			if err := c.Send(f.Msg); err != nil {
				wc.write(frame{Op: "error", Err: err.Error()})
			}
		case "publish":
			if err := c.Publish(f.Msg); err != nil {
				wc.write(frame{Op: "error", Err: err.Error()})
			}
		case "ping":
			// Reply so clients can watch broker liveness; the inbound
			// frame itself already refreshed our read deadline.
			wc.write(frame{Op: "pong"})
		}
	}
}

func (c *Center) registerRemote(port string, wc *wireConn) error {
	if port == "" {
		return fmt.Errorf("agents: empty port name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.local[port]; ok {
		return fmt.Errorf("agents: port %q already registered", port)
	}
	if _, ok := c.remote[port]; ok {
		return fmt.Errorf("agents: port %q already registered remotely", port)
	}
	c.remote[port] = wc
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// ---------------------------------------------------------------------------
// Client

// Client connection states.
const (
	stateConnected = iota
	stateReconnecting
	stateClosed
)

// dialConfig is the resolved option set of a Client.
type dialConfig struct {
	dialer       func(addr string) (net.Conn, error)
	reconnect    bool
	backoffBase  time.Duration
	backoffMax   time.Duration
	heartbeat    time.Duration
	writeTimeout time.Duration
	opTimeout    time.Duration
	sendBuffer   int
	onError      func(error)
	seed         int64
}

func defaultDialConfig() dialConfig {
	return dialConfig{
		dialer:      func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		backoffBase: 50 * time.Millisecond,
		backoffMax:  2 * time.Second,
		opTimeout:   10 * time.Second,
		sendBuffer:  64,
		seed:        1,
	}
}

// DialOption configures a Client at Dial time.
type DialOption func(*dialConfig)

// WithDialer replaces the TCP dialer — the hook used to inject chaos
// transports or alternative networks.
func WithDialer(dial func(addr string) (net.Conn, error)) DialOption {
	return func(c *dialConfig) { c.dialer = dial }
}

// WithReconnect enables automatic reconnection with exponential backoff:
// on connection loss the client re-dials, re-registers its ports,
// re-subscribes its topics and replays buffered sends. Without it a lost
// connection closes the client (the pre-hardening behavior).
func WithReconnect(on bool) DialOption {
	return func(c *dialConfig) { c.reconnect = on }
}

// WithBackoff sets the reconnect backoff's base and cap (defaults 50ms,
// 2s). A uniform jitter of up to half the current backoff is added.
func WithBackoff(base, max time.Duration) DialOption {
	return func(c *dialConfig) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithHeartbeat makes the client send a ping frame every interval and arms
// a read deadline of three intervals, so a dead broker is detected even
// when the link stays technically open.
func WithHeartbeat(interval time.Duration) DialOption {
	return func(c *dialConfig) { c.heartbeat = interval }
}

// withWriteTimeout arms a per-frame write deadline on the client side.
// Only tests set it; every other client has none.
func withWriteTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.writeTimeout = d }
}

// WithOpTimeout bounds how long synchronous operations (Register,
// Subscribe) wait for their acknowledgment (default 10s).
func WithOpTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) {
		if d > 0 {
			c.opTimeout = d
		}
	}
}

// withSendBuffer bounds the in-flight buffer of sends accepted during an
// outage and replayed after reconnect (default 64 frames; only tests set
// another). When the buffer is full further sends fail fast instead of
// blocking.
func withSendBuffer(n int) DialOption {
	return func(c *dialConfig) {
		if n > 0 {
			c.sendBuffer = n
		}
	}
}

// WithErrorHandler installs the sink for asynchronous failures: remote
// "error" frames (previously dropped silently), connection losses, replay
// and re-registration problems. The handler runs on client goroutines and
// must not block.
func WithErrorHandler(fn func(error)) DialOption {
	return func(c *dialConfig) { c.onError = fn }
}

// WithSeed seeds the reconnect jitter RNG for reproducible backoff
// schedules in tests.
func WithSeed(seed int64) DialOption {
	return func(c *dialConfig) { c.seed = seed }
}

// mailbox is one registered port's delivery channel plus the buffer size
// needed to re-register it after a reconnect.
type mailbox struct {
	ch     chan Message
	buffer int
}

// Client is a TCP connection to a remote Message Center implementing Port.
// It is safe for concurrent use. With WithReconnect it survives link
// failures: mailbox channels stay open across outages and registrations
// are replayed on the new connection.
type Client struct {
	addr string
	cfg  dialConfig
	wmu  sync.Mutex // serializes frame writes (any generation)

	// regMu serializes registration-shaped traffic (Register, Subscribe,
	// and the reconnect resync) so acknowledgment frames are matched to
	// the operation awaiting them.
	regMu sync.Mutex

	wbuf []byte // the frame being written, under wmu

	mu      sync.Mutex
	state   int
	conn    net.Conn
	gen     int // connection generation; readLoops outlive their conn
	boxes   map[string]*mailbox
	topics  map[string]map[string]bool // port -> subscribed topics
	pending []frame                    // bounded in-flight buffer
	jitter  *rand.Rand

	acks chan frame

	// Per-client event counts, read by tests; an operator reads the
	// process-wide pragma_agents_* counters.
	reconnects     atomic.Int64
	delivered      atomic.Int64
	mailboxDrops   atomic.Int64
	bufferRejects  atomic.Int64
	heartbeatsSent atomic.Int64
}

// Dial connects to a Message Center served at addr.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := defaultDialConfig()
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := cfg.dialer(addr)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		addr:   addr,
		cfg:    cfg,
		state:  stateConnected,
		boxes:  make(map[string]*mailbox),
		topics: make(map[string]map[string]bool),
		acks:   make(chan frame, 16),
		jitter: rand.New(rand.NewSource(cfg.seed)),
	}
	cl.mu.Lock()
	cl.installLocked(conn)
	cl.mu.Unlock()
	if cfg.heartbeat > 0 {
		go cl.heartbeatLoop()
	}
	return cl, nil
}

// installLocked adopts a fresh connection (mu held).
func (cl *Client) installLocked(conn net.Conn) {
	cl.conn = conn
	cl.gen++
	go cl.readLoop(cl.gen, conn)
}

func (cl *Client) reportErr(err error) {
	if cl.cfg.onError != nil {
		cl.cfg.onError(err)
	}
}

// Degraded reports whether the control network is currently unusable from
// this client's point of view: reconnecting after a loss, or closed. A
// caller that wires core.AgentManaged.Health over it lets the
// meta-partitioner fall back to local-only policy during partitions.
func (cl *Client) Degraded() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.state != stateConnected
}

func (cl *Client) readLoop(gen int, conn net.Conn) {
	fr := frameReader{r: bufio.NewReader(conn)}
	var readTimeout time.Duration
	if cl.cfg.heartbeat > 0 {
		readTimeout = 3 * cl.cfg.heartbeat
	}
	for {
		if readTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(readTimeout))
		}
		var f frame
		if err := fr.read(&f); err != nil {
			var ne net.Error
			if readTimeout > 0 && errors.As(err, &ne) && ne.Timeout() {
				metricHeartbeatMisses.Inc()
			}
			cl.connLost(gen, conn, err)
			return
		}
		switch f.Op {
		case "deliver":
			// The send never blocks, and it stays under the lock: Unregister
			// and Close close the mailbox under the same lock.
			cl.mu.Lock()
			if box, ok := cl.boxes[f.Msg.To]; ok {
				select {
				case box.ch <- f.Msg:
					cl.delivered.Add(1)
				default:
					// Full mailbox: drop the copy, but account for it.
					cl.mailboxDrops.Add(1)
					metricMailboxFull.Inc()
				}
			}
			cl.mu.Unlock()
		case "register", "subscribe":
			select {
			case cl.acks <- f:
			default:
			}
		case "pong":
			// Broker liveness; the read above already refreshed the
			// read deadline.
		case "error":
			// Asynchronous send failures reported by the broker: route
			// them to the error handler instead of dropping them.
			cl.reportErr(fmt.Errorf("agents: remote: %s", f.Err))
		}
	}
}

// connLost reacts to a broken connection observed by a reader or writer of
// generation gen. Exactly one observer per generation wins; the rest are
// no-ops.
func (cl *Client) connLost(gen int, conn net.Conn, cause error) {
	conn.Close()
	cl.mu.Lock()
	if cl.state != stateConnected || gen != cl.gen {
		cl.mu.Unlock()
		return
	}
	metricLinkLosses.Inc()
	if !cl.cfg.reconnect {
		cl.failLocked()
		cl.mu.Unlock()
		cl.reportErr(fmt.Errorf("agents: connection lost: %w", cause))
		return
	}
	cl.state = stateReconnecting
	cl.mu.Unlock()
	cl.reportErr(fmt.Errorf("agents: connection lost, reconnecting: %w", cause))
	go cl.reconnectLoop()
}

// failLocked finalizes the client: mailboxes close, further ops fail.
func (cl *Client) failLocked() {
	if cl.state == stateClosed {
		return
	}
	cl.state = stateClosed
	if cl.conn != nil {
		cl.conn.Close()
	}
	for _, box := range cl.boxes {
		close(box.ch)
	}
	cl.boxes = make(map[string]*mailbox)
	cl.pending = nil
}

func (cl *Client) reconnectLoop() {
	backoff := cl.cfg.backoffBase
	for {
		cl.mu.Lock()
		if cl.state == stateClosed {
			cl.mu.Unlock()
			return
		}
		sleep := backoff + time.Duration(cl.jitter.Int63n(int64(backoff/2)+1))
		cl.mu.Unlock()
		time.Sleep(sleep)
		if backoff < cl.cfg.backoffMax {
			backoff *= 2
			if backoff > cl.cfg.backoffMax {
				backoff = cl.cfg.backoffMax
			}
		}
		conn, err := cl.cfg.dialer(cl.addr)
		if err != nil {
			continue
		}
		if cl.resync(conn) {
			return
		}
	}
}

// resync adopts a fresh connection and rebuilds session state on it:
// re-register every mailbox, re-subscribe every topic, replay the buffered
// sends, then mark the client connected. Returns false (and abandons the
// connection) when the new link dies mid-resync.
func (cl *Client) resync(conn net.Conn) bool {
	cl.regMu.Lock()
	defer cl.regMu.Unlock()

	cl.mu.Lock()
	if cl.state == stateClosed {
		cl.mu.Unlock()
		conn.Close()
		return true // stop reconnecting; client is gone
	}
	// Drain stale acknowledgments from the previous connection so the
	// replays below match fresh ones.
	for {
		select {
		case <-cl.acks:
			continue
		default:
		}
		break
	}
	cl.installLocked(conn)
	ports := make([]string, 0, len(cl.boxes))
	for p := range cl.boxes {
		ports = append(ports, p)
	}
	type sub struct{ port, topic string }
	var subsList []sub
	for p, ts := range cl.topics {
		for t := range ts {
			subsList = append(subsList, sub{p, t})
		}
	}
	cl.mu.Unlock()

	// Re-register ports. The broker may still hold the dead connection's
	// registrations until its read deadline fires, so "already registered
	// remotely" is retried — the register-race window after reconnect.
	for _, port := range ports {
		if !cl.replayRegistration(conn, frame{Op: "register", Port: port}, "register") {
			return false
		}
	}
	for _, s := range subsList {
		if !cl.replayRegistration(conn, frame{Op: "subscribe", Port: s.port, Topic: s.topic}, "subscribe") {
			return false
		}
	}

	// Replay buffered sends, then flip to connected. New sends buffer
	// until the flip, so nothing written during resync is lost.
	for {
		cl.mu.Lock()
		if len(cl.pending) == 0 {
			cl.state = stateConnected
			cl.mu.Unlock()
			break
		}
		f := cl.pending[0]
		cl.pending = cl.pending[1:]
		cl.mu.Unlock()
		if err := cl.writeConn(conn, f); err != nil {
			cl.mu.Lock()
			// Put the frame back for the next attempt.
			cl.pending = append([]frame{f}, cl.pending...)
			if cl.state == stateClosed {
				cl.mu.Unlock()
				return true
			}
			cl.mu.Unlock()
			conn.Close()
			return false
		}
		metricReplayedFrames.Inc()
	}
	cl.reconnects.Add(1)
	metricReconnects.Inc()
	return true
}

// replayRegistration writes one register/subscribe frame on the resync
// connection and waits for its acknowledgment, retrying transient "already
// registered" conflicts. Returns false when the connection must be
// abandoned.
func (cl *Client) replayRegistration(conn net.Conn, f frame, op string) bool {
	deadline := time.Now().Add(cl.cfg.opTimeout)
	for {
		if err := cl.writeConn(conn, f); err != nil {
			conn.Close()
			return false
		}
		err := cl.await(op)
		if err == nil {
			return true
		}
		if time.Now().After(deadline) {
			// Could not reclaim the port in time (e.g. genuinely taken by
			// another client). Report and continue without it rather than
			// wedging the whole reconnect.
			cl.reportErr(fmt.Errorf("agents: reconnect: replay %s %q: %w", op, f.Port, err))
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// writeConn writes one frame on an explicit connection (any state). The
// frame's size was checked when it was first written or buffered.
func (cl *Client) writeConn(conn net.Conn, f frame) error {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()
	if cl.cfg.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(cl.cfg.writeTimeout))
	}
	return writeFrame(conn, &cl.wbuf, &f)
}

// writeCurrent writes one frame on the current connection, failing when
// the client is not connected (synchronous-operation path).
func (cl *Client) writeCurrent(f frame) error {
	if f.bodyLen() > maxFrameBody {
		return errFrameTooLong
	}
	cl.mu.Lock()
	switch cl.state {
	case stateClosed:
		cl.mu.Unlock()
		return fmt.Errorf("agents: client closed")
	case stateReconnecting:
		cl.mu.Unlock()
		return fmt.Errorf("agents: client disconnected (reconnecting)")
	}
	conn, gen := cl.conn, cl.gen
	cl.mu.Unlock()
	if err := cl.writeConn(conn, f); err != nil {
		cl.connLost(gen, conn, err)
		return err
	}
	return nil
}

// sendAsync writes a send/publish frame, buffering it for replay when the
// connection is down (or breaks mid-write) and reconnection is enabled.
func (cl *Client) sendAsync(f frame) error {
	if f.bodyLen() > maxFrameBody {
		return errFrameTooLong
	}
	cl.mu.Lock()
	switch cl.state {
	case stateClosed:
		cl.mu.Unlock()
		return fmt.Errorf("agents: client closed")
	case stateReconnecting:
		err := cl.bufferLocked(f)
		cl.mu.Unlock()
		return err
	}
	conn, gen := cl.conn, cl.gen
	cl.mu.Unlock()
	if err := cl.writeConn(conn, f); err != nil {
		var buffered error
		if cl.cfg.reconnect {
			cl.mu.Lock()
			buffered = cl.bufferLocked(f)
			cl.mu.Unlock()
		}
		cl.connLost(gen, conn, err)
		if !cl.cfg.reconnect {
			return err
		}
		return buffered
	}
	return nil
}

// bufferLocked queues a frame for replay after reconnect (mu held). The
// buffer is bounded: overflow rejects the send instead of growing without
// limit.
func (cl *Client) bufferLocked(f frame) error {
	if len(cl.pending) >= cl.cfg.sendBuffer {
		cl.bufferRejects.Add(1)
		metricBufferRejects.Inc()
		return fmt.Errorf("agents: send buffer full (%d frames) during outage", cl.cfg.sendBuffer)
	}
	cl.pending = append(cl.pending, f)
	return nil
}

func (cl *Client) heartbeatLoop() {
	ticker := time.NewTicker(cl.cfg.heartbeat)
	defer ticker.Stop()
	for range ticker.C {
		cl.mu.Lock()
		state := cl.state
		conn, gen := cl.conn, cl.gen
		cl.mu.Unlock()
		switch state {
		case stateClosed:
			return
		case stateReconnecting:
			continue
		}
		if err := cl.writeConn(conn, frame{Op: "ping"}); err != nil {
			cl.connLost(gen, conn, err)
			continue
		}
		cl.heartbeatsSent.Add(1)
		metricHeartbeatsSent.Inc()
	}
}

func (cl *Client) await(op string) error {
	timer := time.NewTimer(cl.cfg.opTimeout)
	defer timer.Stop()
	for {
		select {
		case f := <-cl.acks:
			if f.Op != op {
				continue
			}
			if f.Err != "" {
				return fmt.Errorf("agents: %s", f.Err)
			}
			return nil
		case <-timer.C:
			return fmt.Errorf("agents: timed out awaiting %s acknowledgment", op)
		}
	}
}

// Register implements Port.
func (cl *Client) Register(port string, buffer int) (<-chan Message, error) {
	if buffer < 1 {
		buffer = 16
	}
	cl.regMu.Lock()
	defer cl.regMu.Unlock()
	cl.mu.Lock()
	if cl.state == stateClosed {
		cl.mu.Unlock()
		return nil, fmt.Errorf("agents: client closed")
	}
	if _, ok := cl.boxes[port]; ok {
		cl.mu.Unlock()
		return nil, fmt.Errorf("agents: port %q already registered on this client", port)
	}
	box := &mailbox{ch: make(chan Message, buffer), buffer: buffer}
	cl.boxes[port] = box
	cl.mu.Unlock()
	rollback := func() {
		cl.mu.Lock()
		delete(cl.boxes, port)
		cl.mu.Unlock()
	}
	if err := cl.writeCurrent(frame{Op: "register", Port: port}); err != nil {
		rollback()
		return nil, err
	}
	if err := cl.await("register"); err != nil {
		rollback()
		return nil, err
	}
	return box.ch, nil
}

// Unregister implements Port.
func (cl *Client) Unregister(port string) {
	cl.mu.Lock()
	if box, ok := cl.boxes[port]; ok {
		delete(cl.boxes, port)
		close(box.ch)
	}
	delete(cl.topics, port)
	cl.mu.Unlock()
	cl.writeCurrent(frame{Op: "unregister", Port: port})
}

// Send implements Port. During an outage (with reconnection enabled) the
// message is buffered and replayed once the link resynchronizes.
func (cl *Client) Send(m Message) error {
	return cl.sendAsync(frame{Op: "send", Msg: m})
}

// Subscribe implements Port.
func (cl *Client) Subscribe(port, topic string) error {
	cl.regMu.Lock()
	defer cl.regMu.Unlock()
	if err := cl.writeCurrent(frame{Op: "subscribe", Port: port, Topic: topic}); err != nil {
		return err
	}
	if err := cl.await("subscribe"); err != nil {
		return err
	}
	cl.mu.Lock()
	if cl.topics[port] == nil {
		cl.topics[port] = make(map[string]bool)
	}
	cl.topics[port][topic] = true
	cl.mu.Unlock()
	return nil
}

// Publish implements Port. Like Send, publications during an outage are
// buffered and replayed.
func (cl *Client) Publish(m Message) error {
	return cl.sendAsync(frame{Op: "publish", Msg: m})
}

// Close tears down the connection, closes all mailboxes and stops any
// reconnection in progress.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.state == stateClosed {
		return nil
	}
	cl.failLocked()
	return nil
}

var _ Port = (*Client)(nil)
