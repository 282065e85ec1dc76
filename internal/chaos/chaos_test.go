package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns the two ends of an in-memory connection with the client
// side chaos-wrapped.
func pipePair(cfg Config) (*Conn, net.Conn) {
	a, b := net.Pipe()
	return Wrap(a, cfg), b
}

func TestZeroConfigIsTransparent(t *testing.T) {
	c, peer := pipePair(Config{})
	defer c.Close()
	defer peer.Close()
	go func() {
		c.Write([]byte("hello"))
	}()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(peer, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("got %q", buf)
	}
	if c.Faults() != 0 {
		t.Fatalf("faults = %d", c.Faults())
	}
}

func TestDeterministicFaultSequence(t *testing.T) {
	// The same seed must produce the same drop decisions for the same
	// operation sequence.
	run := func() []bool {
		in := newInjector(Config{Seed: 42, DropRate: 0.3})
		out := make([]bool, 32)
		for i := range out {
			out[i] = in.spend(0.3)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverges at %d: %v vs %v", i, a, b)
		}
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	in := newInjector(Config{Seed: 7})
	orig := []byte(`{"op":"register","port":"p"}`)
	cor := in.corrupt(orig)
	if bytes.Equal(orig, cor) {
		t.Fatal("corrupt returned identical bytes")
	}
	diff := 0
	for i := range orig {
		if orig[i] != cor[i] {
			diff++
			if x := orig[i] ^ cor[i]; x&(x-1) != 0 {
				t.Fatalf("more than one bit flipped in byte %d", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want 1", diff)
	}
}

func TestDropKillsConnection(t *testing.T) {
	c, peer := pipePair(Config{Seed: 1, DropRate: 1})
	defer peer.Close()
	if _, err := c.Write([]byte("x")); err != ErrInjectedDrop {
		t.Fatalf("err = %v, want ErrInjectedDrop", err)
	}
	// The underlying connection is closed too.
	if _, err := c.Conn.Write([]byte("x")); err == nil {
		t.Fatal("underlying conn still writable after injected drop")
	}
	if c.Faults() != 1 {
		t.Fatalf("faults = %d", c.Faults())
	}
}

func TestMaxFaultsBudget(t *testing.T) {
	in := newInjector(Config{Seed: 3, DropRate: 1, MaxFaults: 2})
	hits := 0
	for i := 0; i < 10; i++ {
		if in.spend(1) {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("spent %d faults, want 2 (budgeted)", hits)
	}
}

func TestPartialWritesStillDeliverEverything(t *testing.T) {
	c, peer := pipePair(Config{Seed: 5, PartialWrites: true, MaxWriteChunk: 3})
	defer c.Close()
	defer peer.Close()
	payload := bytes.Repeat([]byte("abcdefg"), 20)
	go func() {
		if n, err := c.Write(payload); err != nil || n != len(payload) {
			t.Errorf("write n=%d err=%v", n, err)
		}
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mangled by partial writes")
	}
}

func TestLatencyDelaysOps(t *testing.T) {
	c, peer := pipePair(Config{Latency: 30 * time.Millisecond})
	defer c.Close()
	defer peer.Close()
	go io.Copy(io.Discard, peer)
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("write returned after %v, want >= ~30ms", el)
	}
}

func TestWrapListenerSharesInjector(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := WrapListener(ln, Config{Seed: 9, DropRate: 1, MaxFaults: 1})
	defer cl.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := cl.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 8)
				c.Read(buf)
			}(c)
		}
	}()
	// Two client connections; the server side has a one-fault budget, so
	// exactly one read is dropped across them.
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.Write([]byte("ping"))
		c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for cl.Faults() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("faults = %d, want 1", cl.Faults())
		}
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	<-done
}

func TestFaultPointFiresExactlyOnce(t *testing.T) {
	fp := &FaultPoint{FailAt: 3}
	for i := 1; i <= 6; i++ {
		err := fp.Check()
		if i == 3 && !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("call %d: err = %v, want ErrInjectedCrash", i, err)
		}
		if i != 3 && err != nil {
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
	if !fp.Fired() || fp.Calls() != 6 {
		t.Fatalf("fired = %v, calls = %d, want true/6", fp.Fired(), fp.Calls())
	}
}

func TestFaultPointDisarmed(t *testing.T) {
	fp := &FaultPoint{}
	for i := 0; i < 10; i++ {
		if err := fp.Check(); err != nil {
			t.Fatalf("disarmed fault point fired: %v", err)
		}
	}
	if fp.Fired() {
		t.Fatal("disarmed fault point reports fired")
	}
}

// TestDialerSharesInjector checks that every connection a Dialer makes
// draws from one fault budget: with a budget of one drop, the first
// connection is killed and the redial after it carries data intact.
func TestDialerSharesInjector(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan string, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 4)
			if _, err := io.ReadFull(c, buf); err == nil {
				got <- string(buf)
			}
			c.Close()
		}
	}()
	dial := Dialer(Config{Seed: 1, DropRate: 1, MaxFaults: 1})
	first, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Write([]byte("lost")); err != ErrInjectedDrop {
		t.Fatalf("first write: err = %v, want ErrInjectedDrop", err)
	}
	second, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.Write([]byte("ping")); err != nil {
		t.Fatalf("redial after the spent budget failed: %v", err)
	}
	select {
	case s := <-got:
		if s != "ping" {
			t.Fatalf("server read %q, want ping", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never read the redial's bytes")
	}
	if n := second.(*Conn).Faults(); n != 1 {
		t.Fatalf("shared fault count %d, want 1", n)
	}
}
