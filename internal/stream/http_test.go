package stream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sseFrame is one parsed SSE event.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readFrames parses n SSE frames from r, failing the test on timeout
// (the reader runs in a goroutine; the deadline is enforced by the
// caller's channel select).
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	frames := make([]sseFrame, 0, n)
	var cur sseFrame
	for len(frames) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v (got %d/%d frames)", err, len(frames), n)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.data != "" {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			cur.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	return frames
}

func TestSSEObservesEveryTransition(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	srv := httptest.NewServer(Handler(h, HandlerConfig{Heartbeat: 100 * time.Millisecond}))
	defer srv.Close()

	// The "queued" event fires before the client attaches; replay must
	// deliver it anyway.
	h.Publish(Event{Run: "run-1", Type: TypeState, State: "queued"})

	resp, err := http.Get(srv.URL + "?run=run-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}

	type result struct {
		frames []sseFrame
	}
	got := make(chan result, 1)
	go func() {
		r := bufio.NewReader(resp.Body)
		got <- result{readFrames(t, r, 4)}
	}()

	// Publish the rest of the lifecycle after the subscriber attached.
	// Small sleep lets the SSE handler finish its subscribe, though replay
	// makes the test correct either way.
	time.Sleep(50 * time.Millisecond)
	h.Publish(Event{Run: "run-1", Type: TypeState, State: "running"})
	h.Publish(Event{Run: "run-1", Type: TypeRegrid, Cycle: 1, Partitioner: "SP-ISP"})
	h.Publish(Event{Run: "run-1", Type: TypeState, State: "done"})

	select {
	case r := <-got:
		var states []string
		for _, f := range r.frames {
			var e Event
			if err := json.Unmarshal([]byte(f.data), &e); err != nil {
				t.Fatalf("bad event JSON %q: %v", f.data, err)
			}
			if f.id != fmt.Sprint(e.Seq) {
				t.Errorf("frame id %q != seq %d", f.id, e.Seq)
			}
			if f.event != e.Type {
				t.Errorf("frame event %q != type %q", f.event, e.Type)
			}
			if e.Type == TypeState {
				states = append(states, e.State)
			}
		}
		want := []string{"queued", "running", "done"}
		if len(states) != 3 || states[0] != want[0] || states[1] != want[1] || states[2] != want[2] {
			t.Errorf("observed states %v, want %v", states, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for SSE frames")
	}
}

func TestSSEResumeWithLastEventID(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	srv := httptest.NewServer(Handler(h, HandlerConfig{}))
	defer srv.Close()

	s1 := h.Publish(Event{Run: "r", Type: TypeState, State: "queued"})
	h.Publish(Event{Run: "r", Type: TypeState, State: "running"})

	req, _ := http.NewRequest("GET", srv.URL+"?run=r", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(s1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, bufio.NewReader(resp.Body), 1)
	var e Event
	json.Unmarshal([]byte(frames[0].data), &e)
	if e.State != "running" {
		t.Errorf("resumed state %q, want running (queued was before cursor)", e.State)
	}
}

func TestSSEFrameWireFormatUnchanged(t *testing.T) {
	// One frame with every omitempty field of Event set and strings that
	// need escaping, byte for byte: the golden file was recorded from the
	// hand-written frame encoder the handler had before encoding/json.
	h := NewHub(Config{})
	defer h.Close()
	srv := httptest.NewServer(Handler(h, HandlerConfig{}))
	defer srv.Close()
	h.Publish(Event{
		Run: "run-000001", Type: TypeRegrid, State: "running", Cycle: 7, Partitioner: "G-MISP+SP",
		Error: "a<b>&c\u2028 \"quoted\"\n", Time: time.Date(2026, 8, 8, 1, 2, 3, 456789000, time.UTC),
	})
	resp, err := http.Get(srv.URL + "?run=run-000001")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type %q, want text/event-stream", ct)
	}
	var got []byte
	r := bufio.NewReader(resp.Body)
	for !bytes.HasSuffix(got, []byte("\n\n")) {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v (got %q)", err, got)
		}
		got = append(got, line...)
	}
	golden := filepath.Join("testdata", "sse_frame.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SSE frame drifted from its golden file\n got: %q\nwant: %q", got, want)
	}
}

func TestHandlerRejectsBadInput(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	srv := httptest.NewServer(Handler(h, HandlerConfig{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?after=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cursor: status %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type %q, want application/json", ct)
	}

	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", post.StatusCode)
	}

	// A ResponseWriter that cannot flush gets a JSON 501 that names no
	// other transport: there is none.
	rec := httptest.NewRecorder()
	Handler(h, HandlerConfig{}).ServeHTTP(struct{ http.ResponseWriter }{rec}, httptest.NewRequest("GET", "/?run=r", nil))
	if rec.Code != http.StatusNotImplemented || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("no flusher: status %d Content-Type %q, want 501 application/json", rec.Code, rec.Header().Get("Content-Type"))
	}
	if body := rec.Body.String(); body != `{"error":"streaming unsupported"}`+"\n" {
		t.Errorf("no flusher: body %q", body)
	}
}

// flushCounter is a streaming ResponseWriter that counts its frames and
// flushes, safe to read while the handler writes.
type flushCounter struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushes int
}

func (w *flushCounter) Header() http.Header { return w.header }
func (w *flushCounter) WriteHeader(int)     {}
func (w *flushCounter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}
func (w *flushCounter) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
}

func (w *flushCounter) counts() (frames, flushes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Count(w.body.String(), "\n\n"), w.flushes
}

// TestSSEBurstIsOneFlush: the events already queued for a subscriber go
// out in order and in one flush after the headers', so a burst of regrids
// costs the client one read rather than one each.
func TestSSEBurstIsOneFlush(t *testing.T) {
	h := NewHub(Config{})
	defer h.Close()
	for i := range 5 {
		h.Publish(Event{Run: "r", Type: TypeRegrid, Cycle: i + 1})
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &flushCounter{header: http.Header{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Handler(h, HandlerConfig{}).ServeHTTP(w, httptest.NewRequest("GET", "/?run=r", nil).WithContext(ctx))
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if frames, _ := w.counts(); frames == 5 || time.Now().After(deadline) {
			break
		}
	}
	cancel()
	<-done
	frames, flushes := w.counts()
	if frames != 5 || flushes != 2 {
		t.Fatalf("%d frames in %d flushes, want 5 in 2 (the headers, then the burst)", frames, flushes)
	}
	for i, part := range strings.Split(strings.TrimSuffix(w.body.String(), "\n\n"), "\n\n") {
		if !strings.Contains(part, fmt.Sprintf(`"cycle":%d,`, i+1)) {
			t.Fatalf("frame %d is %q, want cycle %d", i, part, i+1)
		}
	}
}
