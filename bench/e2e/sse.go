package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// sseFrame is one Server-Sent Events frame: the fields up to a blank line.
type sseFrame struct {
	id    string
	event string
	data  []byte
}

// readFrame reads the next frame from r, skipping comment-only frames
// (the server's ": keep-alive"). It returns io.EOF when the stream ends
// between frames and io.ErrUnexpectedEOF when it ends inside one.
func readFrame(r *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	seen := false
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if err == io.EOF && (seen || len(line) > 0) {
				return sseFrame{}, io.ErrUnexpectedEOF
			}
			return sseFrame{}, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			if seen {
				return f, nil
			}
			continue // blank line after a comment, or a stray one
		}
		if line[0] == ':' {
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "id":
			f.id = string(value)
		case "event":
			f.event = string(value)
		case "data":
			if f.data != nil {
				f.data = append(f.data, '\n')
			}
			f.data = append(f.data, value...)
		}
		seen = true
	}
}

// runEvent is a decoded frame of /sched/events: a run's state transition
// or regrid cycle, or the synthetic "lagging" frame that reports how many
// events the subscription lost (run is empty then).
type runEvent struct {
	Run     string `json:"run"`
	Type    string `json:"type"`
	State   string `json:"state"`
	Dropped uint64 `json:"dropped"`
	lagging bool
}

func decodeFrame(f sseFrame) (runEvent, error) {
	var e runEvent
	if err := json.Unmarshal(f.data, &e); err != nil {
		return runEvent{}, fmt.Errorf("sse %q frame: %w", f.event, err)
	}
	if f.event == "lagging" {
		e.lagging = true
		return e, nil
	}
	if e.Run == "" {
		return runEvent{}, fmt.Errorf("sse %q frame names no run: %s", f.event, f.data)
	}
	return e, nil
}
