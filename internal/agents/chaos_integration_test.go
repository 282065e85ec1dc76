package agents

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/chaos"
)

func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// TestChaosControlNetwork subjects a client↔broker link to seeded chaos —
// latency, jitter, connection drops and byte corruption — and requires the
// hardened client to keep the control network usable: reconnects heal the
// link, buffered frames replay, most traffic gets through, and once the
// fault budget is spent the network is fully functional again.
func TestChaosControlNetwork(t *testing.T) {
	center, addr := startCenterOpts(t,
		WithHeartbeatTimeout(500*time.Millisecond),
		WithCenterWriteTimeout(time.Second))
	sink, err := center.Register("sink", 1024)
	if err != nil {
		t.Fatal(err)
	}
	dialer := chaos.Dialer(chaos.Config{
		Seed:        42,
		Latency:     200 * time.Microsecond,
		Jitter:      time.Millisecond,
		DropRate:    0.01,
		CorruptRate: 0.01,
		MaxFaults:   10,
	})
	cl, err := Dial(addr,
		WithDialer(dialer),
		WithReconnect(true),
		WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		WithHeartbeat(25*time.Millisecond),
		WithOpTimeout(2*time.Second),
		withWriteTimeout(time.Second),
		withSendBuffer(512),
		WithSeed(99),
		WithErrorHandler(func(error) {}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.Register("chaos-src", 8); err != nil {
		t.Fatal(err)
	}

	const sent = 200
	for i := 0; i < sent; i++ {
		if err := cl.Send(Message{From: "chaos-src", To: "sink", Kind: fmt.Sprintf("m-%d", i)}); err != nil {
			t.Fatalf("send %d rejected: %v", i, err)
		}
		time.Sleep(500 * time.Microsecond)
	}

	// Drain until the stream goes quiet. Chaos loses frames that were
	// corrupted on the wire or in flight when a connection died, so exact
	// delivery is not required — but losing more than a fault-budget's
	// worth of traffic means reconnect/replay is broken.
	got := make(map[string]bool)
	for {
		select {
		case m := <-sink:
			got[m.Kind] = true
			continue
		case <-time.After(500 * time.Millisecond):
		}
		break
	}
	if len(got) < sent*3/5 {
		t.Fatalf("only %d/%d distinct messages survived chaos", len(got), sent)
	}

	// The fault budget is exhausted by now; the link must be fully
	// healthy: a sentinel goes through and the client is not degraded.
	deadline := time.Now().Add(10 * time.Second)
sentinel:
	for {
		if time.Now().After(deadline) {
			t.Fatal("network never healed after chaos")
		}
		cl.Send(Message{From: "chaos-src", To: "sink", Kind: "sentinel"})
		select {
		case m := <-sink:
			if m.Kind == "sentinel" {
				break sentinel
			}
		case <-time.After(50 * time.Millisecond):
		}
	}
	if cl.Degraded() {
		t.Fatal("client still degraded after chaos ended")
	}
	t.Logf("chaos run: %d/%d delivered, %d reconnects", len(got), sent, cl.reconnects.Load())
}

// TestChaosServerSide wraps the broker's listener in chaos so faults hit
// the server side of every accepted connection; the reconnecting client
// must still converge to a working link.
func TestChaosServerSide(t *testing.T) {
	c := NewCenter(WithHeartbeatTimeout(500 * time.Millisecond))
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	chaosLn := chaos.WrapListener(ln, chaos.Config{
		Seed:      7,
		Latency:   100 * time.Microsecond,
		DropRate:  0.02,
		MaxFaults: 5,
	})
	go c.Serve(chaosLn)
	t.Cleanup(func() { chaosLn.Close() })
	sink, err := c.Register("sink", 256)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(ln.Addr().String(),
		WithReconnect(true),
		WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		WithHeartbeat(25*time.Millisecond),
		WithOpTimeout(2*time.Second),
		withSendBuffer(256),
		WithSeed(11),
		WithErrorHandler(func(error) {}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.Register("src", 8); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	delivered := 0
	for delivered < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d messages delivered through server-side chaos", delivered)
		}
		cl.Send(Message{From: "src", To: "sink", Kind: "x"})
		select {
		case <-sink:
			delivered++
		case <-time.After(20 * time.Millisecond):
		}
	}
}
