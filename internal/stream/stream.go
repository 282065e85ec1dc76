// Package stream turns the scheduler's polling surface into push. A Hub
// fans run lifecycle events — state transitions and regrid-cycle traces —
// out to any number of subscribers over Server-Sent Events, so clients
// watching a run stop hammering /sched/status.
//
// The cardinal rule is that the publisher never waits: Publish is called
// from the scheduler's admission and completion paths, so a slow or stuck
// subscriber must cost the scheduler nothing. Each subscriber owns a
// bounded buffer; when it overflows, events are dropped and the
// subscriber is marked lagging (it learns how many it missed) instead of
// the scheduler blocking. A bounded per-run history ring, grown on
// demand, lets reconnecting and late-attaching clients catch up on what
// they missed, with the same honesty: if the ring has wrapped past their
// cursor, they are told they lagged rather than silently losing events.
package stream

import (
	"sort"
	"sync"
	"time"
)

// Event types.
const (
	// TypeState marks a run lifecycle transition (queued, running, done,
	// failed, drained, cancelled).
	TypeState = "state"
	// TypeRegrid marks one adaptation cycle inside a running run.
	TypeRegrid = "regrid"
)

// Event is one run lifecycle occurrence. Seq is assigned by the Hub,
// totally ordered across all runs, and usable as a resume cursor.
type Event struct {
	Seq         uint64    `json:"seq"`
	Run         string    `json:"run"`
	Type        string    `json:"type"`
	State       string    `json:"state,omitempty"`
	Cycle       int       `json:"cycle,omitempty"`
	Partitioner string    `json:"partitioner,omitempty"`
	Error       string    `json:"error,omitempty"`
	Time        time.Time `json:"time"`
}

// Sub is one subscription. Read events from C; check Dropped when done
// (or when the hub signals a gap) to learn how many events the
// subscription missed because its buffer was full.
type Sub struct {
	// C delivers events in publish order. Closed by Unsubscribe or hub
	// Close.
	C <-chan Event

	hub     *Hub
	ch      chan Event
	run     string // "" = all runs
	id      uint64
	dropped uint64 // guarded by hub.mu
	closed  bool   // guarded by hub.mu
}

// Dropped returns how many events this subscription has lost to buffer
// overflow so far.
func (s *Sub) Dropped() uint64 {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.dropped
}

// Config sizes a Hub. Zero values take defaults.
type Config struct {
	// SubBuffer is each subscriber's channel capacity (default 64).
	// When full, new events for that subscriber are dropped and counted.
	SubBuffer int
	// History is the per-run catch-up ring size (default 256): how far
	// back a reconnect cursor or a late attach can reach.
	History int
}

// Hub routes published events to subscribers. All methods are safe for
// concurrent use. Publish never blocks.
type Hub struct {
	mu      sync.Mutex
	cfg     Config
	seq     uint64
	nextSub uint64
	subs    map[uint64]*Sub
	history map[string]*ring
	order   []string // history insertion order, for bounded eviction
	closed  bool
}

// maxRuns bounds how many runs keep history before the oldest is evicted;
// it tracks the scheduler's own retention (1024 terminal records) loosely — the
// ring is a catch-up window, not an archive.
const maxRuns = 4096

// ring is an overwrite-oldest event buffer for one run. It grows by
// append up to size, so a run that publishes a few events holds a few,
// and wraps once full.
type ring struct {
	buf     []Event
	size    int // Config.History
	start   int // index of oldest
	n       int
	evicted uint64 // Seq of the newest event overwritten, 0 = none
}

func (r *ring) push(e Event) {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, e)
		r.n++
		return
	}
	r.evicted = r.buf[r.start].Seq
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// at returns the i-th oldest retained event.
func (r *ring) at(i int) Event { return r.buf[(r.start+i)%len(r.buf)] }

// first returns the position of the oldest retained event with
// Seq > after (r.n when there is none).
func (r *ring) first(after uint64) int {
	return sort.Search(r.n, func(i int) bool { return r.at(i).Seq > after })
}

// lagged reports whether the ring has evicted an event past the cursor.
func (r *ring) lagged(after uint64) bool { return after != 0 && after < r.evicted }

// head is a position in one ring during a catch-up merge.
type head struct {
	r *ring
	i int
}

func (hd head) seq() uint64 { return hd.r.at(hd.i).Seq }

// heads is a binary min-heap of ring positions by the Seq of their events.
type heads []head

// down restores the heap order below position k.
func (hs heads) down(k int) {
	for {
		c := 2*k + 1
		if c >= len(hs) {
			return
		}
		if c+1 < len(hs) && hs[c+1].seq() < hs[c].seq() {
			c++
		}
		if hs[k].seq() < hs[c].seq() {
			return
		}
		hs[k], hs[c] = hs[c], hs[k]
		k = c
	}
}

// NewHub returns a hub with the given sizing.
func NewHub(cfg Config) *Hub {
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = 64
	}
	if cfg.History <= 0 {
		cfg.History = 256
	}
	return &Hub{
		cfg:     cfg,
		subs:    make(map[uint64]*Sub),
		history: make(map[string]*ring),
	}
}

// Publish stamps the event with the next sequence number and time (when
// unset) and delivers it to every matching subscriber without blocking:
// a subscriber whose buffer is full loses the event and has its dropped
// count incremented. The stamped sequence number is returned.
func (h *Hub) Publish(e Event) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return h.seq
	}
	h.seq++
	e.Seq = h.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r := h.history[e.Run]
	if r == nil {
		if len(h.order) >= maxRuns {
			delete(h.history, h.order[0])
			h.order = h.order[1:]
		}
		r = &ring{size: h.cfg.History}
		h.history[e.Run] = r
		h.order = append(h.order, e.Run)
	}
	r.push(e)
	for _, s := range h.subs {
		if s.run != "" && s.run != e.Run {
			continue
		}
		select {
		case s.ch <- e:
		default:
			s.dropped++
		}
	}
	return h.seq
}

// Subscribe registers for events of one run (or all runs when run is "").
// Events already buffered with Seq > after are replayed into the
// subscription first, so an attach races nothing: the caller sees every
// event from its cursor onward, in order. If the history ring has already
// evicted part of that range, the subscription starts with what remains
// and the gap is counted in Dropped.
func (h *Hub) Subscribe(run string, after uint64) *Sub {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &Sub{hub: h, run: run, ch: make(chan Event, h.cfg.SubBuffer)}
	s.C = s.ch
	if h.closed {
		s.closed = true
		close(s.ch)
		return s
	}
	h.nextSub++
	s.id = h.nextSub
	h.subs[s.id] = s

	if run != "" {
		if r := h.history[run]; r != nil {
			replay(s, after, r)
		}
	} else if after > 0 {
		rings := make([]*ring, 0, len(h.history))
		for _, r := range h.history {
			rings = append(rings, r)
		}
		replay(s, after, rings...)
	}
	return s
}

// replay merges the rings' events past the cursor into s's fresh channel
// in Seq order, each ring being in order already, and stops when the
// channel is full: SubBuffer events at O(log rings) each. What did not
// fit counts as dropped, same as live overflow, and so does each ring
// that has evicted an event past the cursor.
func replay(s *Sub, after uint64, rings ...*ring) {
	hs := make(heads, 0, len(rings))
	pending := 0
	for _, r := range rings {
		if r.lagged(after) {
			s.dropped++
		}
		if i := r.first(after); i < r.n {
			hs = append(hs, head{r, i})
			pending += r.n - i
		}
	}
	for k := len(hs)/2 - 1; k >= 0; k-- {
		hs.down(k)
	}
	for len(hs) > 0 && len(s.ch) < cap(s.ch) {
		top := &hs[0]
		s.ch <- top.r.at(top.i)
		pending--
		if top.i++; top.i == top.r.n {
			hs[0] = hs[len(hs)-1]
			hs = hs[:len(hs)-1]
		}
		hs.down(0)
	}
	s.dropped += uint64(pending)
}

// Unsubscribe removes the subscription and closes its channel. Safe to
// call more than once.
func (h *Hub) Unsubscribe(s *Sub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(h.subs, s.id)
	close(s.ch)
}

// Close shuts the hub: all subscriptions are closed and further Publish
// calls are ignored.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, s := range h.subs {
		s.closed = true
		close(s.ch)
		delete(h.subs, id)
	}
}
