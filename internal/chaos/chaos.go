// Package chaos provides deterministic fault injection for the agent
// control network. It wraps net.Conn and net.Listener so that tests (and
// the pragma-node emulator) can subject wire traffic to latency, jitter,
// partial writes, byte corruption and connection drops drawn from a seeded
// RNG — failures become reproducible, first-class events instead of
// irreproducible flakes.
//
// All wrapped connections created from one Config share a single fault
// stream, so a fixed Seed yields a fixed fault sequence for a fixed
// operation order. Concurrency still perturbs operation order; tests that
// need strict determinism should drive the connection from one goroutine.
package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedDrop is the error returned by reads and writes on a
// connection the injector decided to kill.
var ErrInjectedDrop = errors.New("chaos: injected connection drop")

// ErrInjectedCrash is the error a FaultPoint returns when it fires —
// process-death emulation for components that are not network connections.
var ErrInjectedCrash = errors.New("chaos: injected crash")

// FaultPoint kills a run at a chosen execution point: the FailAt-th call
// to Check returns ErrInjectedCrash, every other call is free. It extends
// the package's deterministic fault injection beyond the wire — a replay
// loop that calls Check once per regrid interval crashes reproducibly at
// one interval, which is how the crash-recovery tests kill a run
// mid-flight without killing the test process.
type FaultPoint struct {
	// FailAt is the 1-based call index that crashes; 0 or negative never
	// fires.
	FailAt int

	mu    sync.Mutex
	calls int
	fired bool
}

// Check counts one execution of the guarded point and returns
// ErrInjectedCrash exactly when the FailAt-th call is reached.
func (f *FaultPoint) Check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.FailAt > 0 && f.calls == f.FailAt {
		f.fired = true
		return ErrInjectedCrash
	}
	return nil
}

// Fired reports whether the crash has been injected.
func (f *FaultPoint) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Config parameterizes the injected faults. The zero value injects
// nothing and wrapping with it is transparent.
type Config struct {
	// Seed seeds the fault RNG; the same seed replays the same fault
	// sequence (for a deterministic operation order).
	Seed int64
	// Latency is a fixed delay added to every read and write.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) on top of Latency.
	Jitter time.Duration
	// DropRate is the per-operation probability in [0,1] that the
	// connection is closed and the operation fails with ErrInjectedDrop.
	DropRate float64
	// CorruptRate is the per-write probability in [0,1] that one byte of
	// the buffer is flipped before reaching the wire.
	CorruptRate float64
	// PartialWrites splits every write into chunks of at most
	// MaxWriteChunk bytes, exercising short-write handling in encoders.
	PartialWrites bool
	// MaxWriteChunk bounds chunk size when PartialWrites is set (default 7).
	MaxWriteChunk int
	// MaxFaults caps the total number of injected drops and corruptions
	// across all connections sharing this injector; once spent the wrapper
	// becomes transparent apart from latency. 0 means unlimited.
	MaxFaults int
}

// injector is the shared seeded fault source behind a set of wrapped
// connections.
type injector struct {
	cfg    Config
	mu     sync.Mutex
	rng    *rand.Rand
	faults int
}

func newInjector(cfg Config) *injector {
	if cfg.PartialWrites && cfg.MaxWriteChunk <= 0 {
		cfg.MaxWriteChunk = 7
	}
	return &injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// delay draws the latency+jitter pause for one operation.
func (in *injector) delay() time.Duration {
	d := in.cfg.Latency
	if in.cfg.Jitter > 0 {
		in.mu.Lock()
		d += time.Duration(in.rng.Int63n(int64(in.cfg.Jitter)))
		in.mu.Unlock()
	}
	return d
}

// spend rolls a fault with the given probability, consuming fault budget
// on a hit.
func (in *injector) spend(rate float64) bool {
	if rate <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.MaxFaults > 0 && in.faults >= in.cfg.MaxFaults {
		return false
	}
	if in.rng.Float64() >= rate {
		return false
	}
	in.faults++
	return true
}

// corrupt flips one RNG-chosen byte of a copy of p.
func (in *injector) corrupt(p []byte) []byte {
	if len(p) == 0 {
		return p
	}
	in.mu.Lock()
	i := in.rng.Intn(len(p))
	bit := byte(1) << uint(in.rng.Intn(8))
	in.mu.Unlock()
	q := make([]byte, len(p))
	copy(q, p)
	q[i] ^= bit
	return q
}

// Conn is a net.Conn with fault injection on Read and Write. Deadlines,
// addresses and Close pass through to the wrapped connection.
type Conn struct {
	net.Conn
	in *injector
}

// Wrap wraps a single connection with its own injector.
func Wrap(c net.Conn, cfg Config) *Conn {
	return &Conn{Conn: c, in: newInjector(cfg)}
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if d := c.in.delay(); d > 0 {
		time.Sleep(d)
	}
	if c.in.spend(c.in.cfg.DropRate) {
		c.Conn.Close()
		return 0, ErrInjectedDrop
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	if d := c.in.delay(); d > 0 {
		time.Sleep(d)
	}
	if c.in.spend(c.in.cfg.DropRate) {
		c.Conn.Close()
		return 0, ErrInjectedDrop
	}
	if c.in.spend(c.in.cfg.CorruptRate) {
		p = c.in.corrupt(p)
	}
	if !c.in.cfg.PartialWrites {
		return c.Conn.Write(p)
	}
	// Feed the wire in short chunks; total written still covers p unless
	// the underlying connection fails mid-stream.
	written := 0
	for written < len(p) {
		end := written + c.in.cfg.MaxWriteChunk
		if end > len(p) {
			end = len(p)
		}
		n, err := c.Conn.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Listener wraps a net.Listener so every accepted connection shares one
// seeded injector.
type Listener struct {
	net.Listener
	in *injector
}

// WrapListener wraps ln; all accepted connections draw faults from the
// same stream seeded by cfg.Seed.
func WrapListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, in: newInjector(cfg)}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c, in: l.in}, nil
}

// Dialer returns a dial function producing chaos-wrapped TCP connections;
// it plugs into the agent client's WithDialer option. All connections it
// returns share one injector, so reconnects continue the fault stream
// rather than restarting it.
func Dialer(cfg Config) func(addr string) (net.Conn, error) {
	in := newInjector(cfg)
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &Conn{Conn: c, in: in}, nil
	}
}
