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
// the scheduler blocking. A bounded per-run history ring lets reconnecting
// and late-attaching clients catch up on what they missed, with the same
// honesty: if the ring has wrapped past their cursor, they are told they
// lagged rather than silently losing events.
package stream

import (
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

// ring is a fixed-size overwrite-oldest event buffer for one run.
type ring struct {
	buf   []Event
	start int // index of oldest
	n     int
}

func (r *ring) push(e Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// since appends to out the buffered events with Seq > after, in order,
// and reports whether the ring has wrapped past the cursor (events with
// Seq > after were evicted).
func (r *ring) since(after uint64, out []Event) ([]Event, bool) {
	lagged := false
	for i := 0; i < r.n; i++ {
		e := r.buf[(r.start+i)%len(r.buf)]
		if e.Seq <= after {
			continue
		}
		out = append(out, e)
	}
	if r.n > 0 {
		oldest := r.buf[r.start].Seq
		// A gap exists if the cursor predates the oldest retained event
		// by more than one sequence step *for this run*. Seq is global,
		// so the precise per-run test is: cursor < oldest-1 may still be
		// fine (other runs' events fill the numeric gap). The honest
		// check is whether the run's first retained event is the run's
		// genuinely first-after-cursor; the ring cannot know once it has
		// wrapped, so it reports lagged whenever it has wrapped and the
		// cursor is older than everything retained.
		if r.n == len(r.buf) && after != 0 && after < oldest-1 {
			lagged = true
		}
	}
	return out, lagged
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
		r = &ring{buf: make([]Event, h.cfg.History)}
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

	// Replay buffered history into the subscription's channel. The
	// channel holds SubBuffer events; replay beyond that counts as
	// dropped, same as live overflow.
	replay := func(r *ring) {
		events, lagged := r.since(after, nil)
		if lagged {
			s.dropped++
		}
		for _, e := range events {
			select {
			case s.ch <- e:
			default:
				s.dropped++
			}
		}
	}
	if run != "" {
		if r := h.history[run]; r != nil {
			replay(r)
		}
	} else if after > 0 {
		// All-runs catch-up: merge every ring's tail in seq order.
		var all []Event
		for _, r := range h.history {
			var lagged bool
			all, lagged = r.since(after, all)
			if lagged {
				s.dropped++
			}
		}
		sortEvents(all)
		for _, e := range all {
			select {
			case s.ch <- e:
			default:
				s.dropped++
			}
		}
	}
	return s
}

// sortEvents orders by Seq (insertion sort: catch-up batches are small
// and mostly ordered already).
func sortEvents(events []Event) {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].Seq < events[j-1].Seq; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
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

// Seq returns the hub's current (latest assigned) sequence number.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
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
