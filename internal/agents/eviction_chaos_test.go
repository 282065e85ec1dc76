package agents

import (
	"fmt"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/chaos"
)

// TestEvictionReconnectReplayUnderChaos drives the full eviction cycle the
// fleet leans on, over a corrupting link: a client goes silent past the
// broker's heartbeat window and is evicted (the eviction counter must say
// so), then its reconnect machinery re-registers the same mailbox and
// replays buffered frames — all while seeded chaos corrupts wire bytes, so
// recovery must also survive decode-failure connection teardowns.
func TestEvictionReconnectReplayUnderChaos(t *testing.T) {
	center, addr := startCenterOpts(t,
		WithHeartbeatTimeout(150*time.Millisecond),
		WithCenterWriteTimeout(time.Second))
	sink, err := center.Register("sink", 64)
	if err != nil {
		t.Fatal(err)
	}
	dialer := chaos.Dialer(chaos.Config{
		Seed:        7,
		CorruptRate: 0.02,
		MaxFaults:   5, // bounded: the network must eventually heal
	})
	// No heartbeats: this client WILL go silent and WILL be evicted. Its
	// reconnect+replay machinery is what keeps the mailbox usable anyway.
	cl, err := Dial(addr,
		WithDialer(dialer),
		WithReconnect(true),
		WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		WithOpTimeout(2*time.Second),
		withWriteTimeout(time.Second),
		withSendBuffer(256),
		WithErrorHandler(func(error) {}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	in, err := cl.Register("src", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(Message{From: "src", To: "sink", Kind: "baseline"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sink:
		if m.Kind != "baseline" {
			t.Fatalf("baseline got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("baseline never delivered")
	}

	before := metricEvictions.Value()

	// Go silent well past the heartbeat window; the broker must evict.
	// Poll the counter rather than sleeping a fixed time: eviction happens
	// on the broker's read-deadline schedule, not ours.
	deadline := time.Now().Add(10 * time.Second)
	for metricEvictions.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("silent client never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := metricEvictions.Value(); got <= before {
		t.Fatalf("evictions = %d, want > %d", got, before)
	}

	// The evicted client's next sends ride the reconnect: frames buffer,
	// the link re-dials (through the corrupting dialer), "src" re-registers
	// and the buffer replays. Nothing may be lost.
	const sent = 5
	for i := 0; i < sent; i++ {
		if err := cl.Send(Message{From: "src", To: "sink", Kind: fmt.Sprintf("m-%d", i)}); err != nil {
			t.Fatalf("post-eviction send %d rejected: %v", i, err)
		}
	}
	want := map[string]bool{}
	for i := 0; i < sent; i++ {
		want[fmt.Sprintf("m-%d", i)] = true
	}
	deadline = time.Now().Add(15 * time.Second)
	for len(want) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("messages lost across eviction: %v", want)
		}
		select {
		case m := <-sink:
			delete(want, m.Kind)
		case <-time.After(20 * time.Millisecond):
		}
	}

	// And the reverse direction must land in the ORIGINAL mailbox channel:
	// re-registration reuses it. Keep nudging until one arrives (sends into
	// a not-yet-reregistered port error out on the broker side).
	deadline = time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("reverse direction never recovered after eviction")
		}
		center.Send(Message{From: "sink", To: "src", Kind: "back"})
		select {
		case m := <-in:
			if m.Kind != "back" {
				t.Fatalf("reverse got %+v", m)
			}
			if got := cl.reconnects.Load(); got < 1 {
				t.Fatalf("Reconnects = %d, want >= 1", got)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}
