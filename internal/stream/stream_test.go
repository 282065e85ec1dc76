package stream

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// replayed subscribes at the cursor and returns what Subscribe replayed
// from history, plus how much of the range it reported lost.
func replayed(h *Hub, run string, after uint64) ([]Event, uint64) {
	sub := h.Subscribe(run, after)
	dropped := sub.Dropped()
	h.Unsubscribe(sub)
	var events []Event
	for e := range sub.C {
		events = append(events, e)
	}
	return events, dropped
}

func TestPublishSubscribeOrder(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	sub := h.Subscribe("run-1", 0)
	for i := 0; i < 5; i++ {
		h.Publish(Event{Run: "run-1", Type: TypeState, State: fmt.Sprintf("s%d", i)})
	}
	for i := 0; i < 5; i++ {
		select {
		case e := <-sub.C:
			if want := fmt.Sprintf("s%d", i); e.State != want {
				t.Errorf("event %d: state %q, want %q", i, e.State, want)
			}
			if e.Seq != uint64(i+1) {
				t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for event %d", i)
		}
	}
}

func TestRunFilter(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	sub := h.Subscribe("run-b", 0)
	h.Publish(Event{Run: "run-a", Type: TypeState, State: "running"})
	h.Publish(Event{Run: "run-b", Type: TypeState, State: "queued"})
	h.Publish(Event{Run: "run-a", Type: TypeState, State: "done"})
	select {
	case e := <-sub.C:
		if e.Run != "run-b" {
			t.Errorf("got event for %q, want run-b", e.Run)
		}
	case <-time.After(time.Second):
		t.Fatal("timed out")
	}
	select {
	case e := <-sub.C:
		t.Errorf("unexpected second event: %+v", e)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestHistoryReplayOnSubscribe(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	// Events published BEFORE the subscriber attaches must still be seen:
	// this is what makes submit-then-watch race-free.
	h.Publish(Event{Run: "r", Type: TypeState, State: "queued"})
	h.Publish(Event{Run: "r", Type: TypeState, State: "running"})
	sub := h.Subscribe("r", 0)
	states := []string{}
	for i := 0; i < 2; i++ {
		select {
		case e := <-sub.C:
			states = append(states, e.State)
		case <-time.After(time.Second):
			t.Fatal("timed out on replay")
		}
	}
	if states[0] != "queued" || states[1] != "running" {
		t.Errorf("replayed states %v, want [queued running]", states)
	}
	// Live events continue after replay.
	h.Publish(Event{Run: "r", Type: TypeState, State: "done"})
	select {
	case e := <-sub.C:
		if e.State != "done" {
			t.Errorf("live state %q, want done", e.State)
		}
	case <-time.After(time.Second):
		t.Fatal("timed out on live event")
	}
}

func TestSubscribeAfterCursor(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	s1 := h.Publish(Event{Run: "r", Type: TypeState, State: "queued"})
	h.Publish(Event{Run: "r", Type: TypeState, State: "running"})
	sub := h.Subscribe("r", s1)
	select {
	case e := <-sub.C:
		if e.State != "running" {
			t.Errorf("state %q, want running (cursor should skip queued)", e.State)
		}
	case <-time.After(time.Second):
		t.Fatal("timed out")
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	h := NewHub(Config{SubBuffer: 4})
	defer h.Close()
	sub := h.Subscribe("", 0)
	// Publish far more than the buffer without draining; every Publish
	// must return promptly.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			h.Publish(Event{Run: "r", Type: TypeState, State: "x"})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	if d := sub.Dropped(); d != 96 {
		t.Errorf("dropped %d, want 96 (100 published, buffer 4)", d)
	}
	// The buffered 4 are still readable.
	for i := 0; i < 4; i++ {
		select {
		case <-sub.C:
		case <-time.After(time.Second):
			t.Fatal("buffered event missing")
		}
	}
}

func TestRingWrapMarksLagged(t *testing.T) {
	h := NewHub(Config{History: 8})
	defer h.Close()
	var first uint64
	for i := 0; i < 20; i++ {
		seq := h.Publish(Event{Run: "r", Type: TypeState, State: "x"})
		if i == 0 {
			first = seq
		}
	}
	events, dropped := replayed(h, "r", first)
	if dropped == 0 {
		t.Error("want a reported gap after ring wrap")
	}
	if len(events) != 8 {
		t.Errorf("got %d events, want 8 (ring size)", len(events))
	}
	if last := events[len(events)-1].Seq; last != 20 || h.seq != 20 {
		t.Errorf("last replayed seq %d, hub seq %d, want 20", last, h.seq)
	}
	// A cursor inside the retained window is not lagged.
	if _, dropped := replayed(h, "r", 15); dropped != 0 {
		t.Error("cursor within window wrongly marked lagged")
	}
}

func TestSubscribeAllRunsMergesInOrder(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	first := h.Publish(Event{Run: "a", Type: TypeState, State: "s1"})
	h.Publish(Event{Run: "b", Type: TypeState, State: "s2"})
	h.Publish(Event{Run: "a", Type: TypeState, State: "s3"})
	h.Publish(Event{Run: "b", Type: TypeState, State: "s4"})
	events, _ := replayed(h, "", first)
	if len(events) != 3 {
		t.Fatalf("got %d events, want the 3 past the cursor", len(events))
	}
	for i, e := range events {
		if e.Seq != first+uint64(i+1) {
			t.Errorf("event %d out of order: seq %d", i, e.Seq)
		}
	}
}

func TestUnsubscribeIdempotentAndClose(t *testing.T) {
	h := NewHub(Config{})
	sub := h.Subscribe("", 0)
	h.Unsubscribe(sub)
	h.Unsubscribe(sub) // must not panic
	if _, ok := <-sub.C; ok {
		t.Error("channel still open after Unsubscribe")
	}
	sub2 := h.Subscribe("", 0)
	h.Close()
	h.Close() // idempotent
	if _, ok := <-sub2.C; ok {
		t.Error("channel still open after hub Close")
	}
	// Publish after close is a no-op, subscribe returns a closed sub.
	h.Publish(Event{Run: "r"})
	sub3 := h.Subscribe("", 0)
	if _, ok := <-sub3.C; ok {
		t.Error("subscribe after close returned an open channel")
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	h := NewHub(Config{SubBuffer: 8, History: 16})
	defer h.Close()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Publish(Event{Run: fmt.Sprintf("run-%d", i%5), Type: TypeState, State: "x"})
			}
		}(p)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub := h.Subscribe(fmt.Sprintf("run-%d", i%5), 0)
				for j := 0; j < 3; j++ {
					select {
					case <-sub.C:
					case <-time.After(10 * time.Millisecond):
					}
				}
				h.Unsubscribe(sub)
			}
		}(c)
	}
	wg.Wait()
}

func BenchmarkServeEventPublish(b *testing.B) {
	h := NewHub(Config{SubBuffer: 1}) // tiny buffer: measures the drop path too
	defer h.Close()
	h.Subscribe("r", 0)
	e := Event{Run: "r", Type: TypeState, State: "running", Time: time.Unix(0, 0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Publish(e)
	}
}

// TestRingGrowsOnDemand: a run's history ring holds what the run has
// published, not Config.History slots from its first event: after k <
// History events its buffer has room for at most 2k. Once full it stays
// at History events and wraps.
func TestRingGrowsOnDemand(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	size := h.cfg.History
	for k := 1; k < size; k++ {
		h.Publish(Event{Run: "r", Type: TypeRegrid, Cycle: k})
		r := h.history["r"]
		if r.n != k || cap(r.buf) > 2*k {
			t.Fatalf("after %d events the ring holds %d in a buffer of %d, want %d in at most %d", k, r.n, cap(r.buf), k, 2*k)
		}
	}
	for range 2 * size {
		h.Publish(Event{Run: "r", Type: TypeRegrid})
	}
	r := h.history["r"]
	if r.n != size || len(r.buf) != size {
		t.Fatalf("a wrapped ring holds %d events in %d slots, want %d", r.n, len(r.buf), size)
	}
	if r.at(0).Seq != h.seq-uint64(size)+1 || r.at(size-1).Seq != h.seq {
		t.Fatalf("a wrapped ring holds seqs %d to %d, want the newest %d", r.at(0).Seq, r.at(size-1).Seq, size)
	}
}

// TestUnwrappedRingOldCursorNotLagged: a cursor older than every event of
// a ring that has not wrapped loses nothing, even though the ring is full
// to its current length: lag is judged against Config.History.
func TestUnwrappedRingOldCursorNotLagged(t *testing.T) {
	h := NewHub(Config{History: 8})
	defer h.Close()
	cursor := h.Publish(Event{Run: "other", Type: TypeState, State: "queued"})
	for range 5 {
		h.Publish(Event{Run: "other", Type: TypeRegrid})
	}
	for range 5 {
		h.Publish(Event{Run: "r", Type: TypeRegrid})
	}
	events, dropped := replayed(h, "r", cursor)
	if dropped != 0 || len(events) != 5 {
		t.Fatalf("cursor before an unwrapped ring: %d events, %d dropped, want 5 and 0", len(events), dropped)
	}
	all, dropped := replayed(h, "", cursor)
	if dropped != 0 || len(all) != 10 {
		t.Fatalf("all-runs catch-up: %d events, %d dropped, want 10 and 0", len(all), dropped)
	}
}

// TestHistoryEvictsOldestRun: past maxRuns runs the oldest run's history
// goes, and the next oldest stays.
func TestHistoryEvictsOldestRun(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	for i := range maxRuns + 1 {
		h.Publish(Event{Run: fmt.Sprintf("run-%d", i), Type: TypeState, State: "queued"})
	}
	if len(h.history) != maxRuns {
		t.Fatalf("%d runs keep history, want %d", len(h.history), maxRuns)
	}
	if events, _ := replayed(h, "run-0", 0); len(events) != 0 {
		t.Errorf("the oldest run still replays %d events", len(events))
	}
	if events, _ := replayed(h, "run-1", 0); len(events) != 1 {
		t.Errorf("the next oldest run replays %d events, want 1", len(events))
	}
}

// TestExactLagWhenRingJustFull: a run that published exactly History
// events has evicted none, so a cursor older than all of them replays
// every one and reports no gap; one more event evicts the oldest, and
// then the same cursor lags while a cursor at the evicted event does not.
func TestExactLagWhenRingJustFull(t *testing.T) {
	h := NewHub(Config{History: 4})
	defer h.Close()
	for range 6 {
		h.Publish(Event{Run: "other", Type: TypeRegrid})
	}
	for range 4 {
		h.Publish(Event{Run: "a", Type: TypeRegrid})
	}
	events, dropped := replayed(h, "a", 2)
	if len(events) != 4 || events[0].Seq != 7 || dropped != 0 {
		t.Fatalf("full ring, nothing evicted: %d events from seq %d, %d dropped, want 4 from 7 and 0", len(events), events[0].Seq, dropped)
	}
	evicted := events[0].Seq
	h.Publish(Event{Run: "a", Type: TypeRegrid})
	if events, dropped := replayed(h, "a", 2); len(events) != 4 || dropped != 1 {
		t.Fatalf("one event evicted past the cursor: %d events, %d dropped, want 4 and 1", len(events), dropped)
	}
	if events, dropped := replayed(h, "a", evicted); len(events) != 4 || dropped != 0 {
		t.Fatalf("cursor at the evicted event: %d events, %d dropped, want 4 and 0", len(events), dropped)
	}
}

// TestAllRunsCatchUpIsBounded: an all-runs catch-up over many runs'
// history replays the SubBuffer oldest events past the cursor, in order,
// counts every other one as dropped, and returns promptly: it holds the
// hub's lock, which the scheduler's publishers wait on.
func TestAllRunsCatchUpIsBounded(t *testing.T) {
	const runs, perRun = 1000, 100
	h := NewHub(Config{})
	defer h.Close()
	for i := range runs * perRun {
		h.Publish(Event{Run: fmt.Sprintf("run-%d", i%runs), Type: TypeRegrid, Time: time.Unix(0, 0)})
	}
	done := make(chan struct{})
	var events []Event
	var dropped uint64
	go func() {
		events, dropped = replayed(h, "", 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("an all-runs catch-up over %d events held the hub for more than 5s", runs*perRun)
	}
	if len(events) != h.cfg.SubBuffer {
		t.Fatalf("replayed %d events, want %d", len(events), h.cfg.SubBuffer)
	}
	for i, e := range events {
		if e.Seq != uint64(i+2) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+2)
		}
	}
	if want := uint64(runs*perRun - 1 - h.cfg.SubBuffer); dropped != want {
		t.Fatalf("dropped %d, want %d", dropped, want)
	}
}
