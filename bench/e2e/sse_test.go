package main

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

func TestReadFrames(t *testing.T) {
	stream := "" +
		": keep-alive\n\n" +
		"id: 7\nevent: state\ndata: {\"seq\":7,\"run\":\"run-000003\",\"type\":\"state\",\"state\":\"done\",\"time\":\"2026-01-01T00:00:00Z\"}\n\n" +
		"id: 8\r\nevent: regrid\r\ndata: {\"seq\":8,\"run\":\"run-000004\",\"type\":\"regrid\",\"cycle\":2,\"partitioner\":\"SFC\"}\r\n\r\n" +
		"event: lagging\ndata: {\"dropped\":12}\n\n" +
		"data: first\ndata: second\n\n"
	r := bufio.NewReader(strings.NewReader(stream))

	f, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if f.id != "7" || f.event != "state" {
		t.Errorf("frame 1 = %+v", f)
	}
	e, err := decodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if e.Run != "run-000003" || e.Type != "state" || e.State != "done" || e.lagging {
		t.Errorf("event 1 = %+v", e)
	}

	f, err = readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if e, err = decodeFrame(f); err != nil || e.Run != "run-000004" || e.Type != "regrid" {
		t.Errorf("event 2 = %+v, %v (CRLF line ends)", e, err)
	}

	f, err = readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if e, err = decodeFrame(f); err != nil || !e.lagging || e.Dropped != 12 || e.Run != "" {
		t.Errorf("lagging event = %+v, %v", e, err)
	}

	f, err = readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.data) != "first\nsecond" {
		t.Errorf("multi-line data = %q", f.data)
	}
	if _, err := decodeFrame(f); err == nil {
		t.Error("a frame that is not JSON decoded without error")
	}

	if _, err := readFrame(r); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	r := bufio.NewReader(strings.NewReader("id: 1\nevent: state\ndata: {\"run\""))
	if _, err := readFrame(r); err != io.ErrUnexpectedEOF {
		t.Errorf("stream cut inside a frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestDecodeFrameNeedsRun(t *testing.T) {
	if _, err := decodeFrame(sseFrame{event: "state", data: []byte(`{"type":"state","state":"done"}`)}); err == nil {
		t.Error("a state frame naming no run decoded without error")
	}
}
