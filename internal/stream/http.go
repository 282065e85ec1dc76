package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// HandlerConfig tunes the events endpoint. Zero values take defaults.
type HandlerConfig struct {
	// Heartbeat is the SSE keep-alive comment interval (default 15s).
	Heartbeat time.Duration
}

// Handler serves the hub over HTTP as Server-Sent Events:
//
//	GET /...?run=<id>               the run's retained history, then live events
//	GET /...?run=<id>&after=<seq>   only events past a cursor
//
// run omitted subscribes to all runs. Frames carry the event JSON in
// data:, the hub sequence number in id: (usable as Last-Event-ID /
// ?after= on reconnect) and the event type in event:. When the
// subscriber's buffer overflowed, a synthetic "lagging" event reports how
// many events were lost.
func Handler(hub *Hub, cfg HandlerConfig) http.Handler {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMethodNotAllowed)
			w.Write([]byte(`{"error":"GET only"}` + "\n"))
			return
		}
		q := req.URL.Query()
		run := q.Get("run")
		var after uint64
		if s := q.Get("after"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				w.Write([]byte(`{"error":"bad after cursor"}` + "\n"))
				return
			}
			after = v
		} else if s := req.Header.Get("Last-Event-ID"); s != "" {
			if v, err := strconv.ParseUint(s, 10, 64); err == nil {
				after = v
			}
		}
		serveSSE(hub, cfg, w, req, run, after)
	})
}

func serveSSE(hub *Hub, cfg HandlerConfig, w http.ResponseWriter, req *http.Request, run string, after uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotImplemented)
		w.Write([]byte(`{"error":"streaming unsupported"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sub := hub.Subscribe(run, after)
	defer hub.Unsubscribe(sub)

	var reported uint64 // dropped count already told to the client
	heartbeat := time.NewTicker(cfg.Heartbeat)
	defer heartbeat.Stop()

	// One Write per frame, so a frame is never flushed half-written.
	writeEvent := func(e Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false // end the stream rather than skip an event silently
		}
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
		return err == nil
	}
	writeLagging := func(dropped uint64) bool {
		if _, err := fmt.Fprintf(w, "event: lagging\ndata: {\"dropped\":%d}\n\n", dropped); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	for {
		// Report buffer overflow as soon as it is observed, so a lagging
		// client knows its view has a gap and can re-sync via /sched/status.
		if d := sub.Dropped(); d > reported {
			if !writeLagging(d - reported) {
				return
			}
			reported = d
		}
		select {
		case e, ok := <-sub.C:
			if !ok {
				return // hub closed
			}
			// The events queued behind e go out in the same flush: a
			// burst of regrids costs the client one read, not one each.
			for n := len(sub.C); ; n-- {
				if !writeEvent(e) {
					return
				}
				if n == 0 {
					break
				}
				e = <-sub.C
			}
			flusher.Flush()
		case <-heartbeat.C:
			if _, err := w.Write([]byte(": keep-alive\n\n")); err != nil {
				return
			}
			flusher.Flush()
		case <-req.Context().Done():
			return
		}
	}
}
