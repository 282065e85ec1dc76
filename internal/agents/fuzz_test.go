package agents

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/chaos"
)

// halfConn adapts a bytes.Buffer into the net.Conn the chaos wrapper
// expects, so frame encodings can be pushed through the corruption path
// and captured as fuzz seeds.
type halfConn struct {
	net.Conn // nil; only Write is used
	buf      bytes.Buffer
}

func (h *halfConn) Write(p []byte) (int, error) { return h.buf.Write(p) }

// seedFrames are the canonical wire frames the fuzzers start from.
var seedFrames = []frame{
	{Op: "register", Port: "node-0"},
	{Op: "subscribe", Port: "node-0", Topic: "events"},
	{Op: "send", Msg: Message{From: "a", To: "b", Kind: "state", Payload: []byte(`{"load":0.5}`)}},
	{Op: "publish", Msg: Message{From: "a", Topic: "events", Kind: "event"}},
	{Op: "ping"},
	{Op: "error", Err: "boom"},
}

// encodeFrame is appendFrame for a frame known to fit.
func encodeFrame(t testing.TB, f frame) []byte {
	t.Helper()
	b, err := appendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// corruptedFrames runs the canonical wire frames through a chaos
// connection with certain corruption, yielding the bit-flipped encodings
// real links produce. These seed the decode fuzzer with realistic
// near-valid input.
func corruptedFrames(t testing.TB, seed int64) [][]byte {
	var out [][]byte
	for i, f := range seedFrames {
		hc := &halfConn{}
		cc := chaos.Wrap(hc, chaos.Config{Seed: seed + int64(i), CorruptRate: 1})
		if _, err := cc.Write(encodeFrame(t, f)); err != nil {
			continue
		}
		out = append(out, append([]byte(nil), hc.buf.Bytes()...))
	}
	return out
}

// oversizeHeader is a well-formed header announcing one byte more than a
// reader accepts.
func oversizeHeader() []byte {
	h := binary.LittleEndian.AppendUint32([]byte{frameFormat}, maxFrameBody+1)
	return append(h, 0, 0, 0, 0)
}

// readOne decodes the first frame of data.
func readOne(data []byte) (frame, error) {
	fr := frameReader{r: bufio.NewReader(bytes.NewReader(data))}
	var f frame
	err := fr.read(&f)
	return f, err
}

// FuzzFrameDecode feeds arbitrary bytes into a Center's wire handler and
// requires that malformed input can never panic the broker or leave it
// unusable: after the connection dies, local registration and delivery
// must still work.
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range seedFrames {
		f.Add(encodeFrame(f, fr))
	}
	f.Add(append(encodeFrame(f, frame{Op: "ping"}), encodeFrame(f, seedFrames[3])...))
	for _, b := range corruptedFrames(f, 1) {
		f.Add(b)
	}
	f.Add(encodeFrame(f, seedFrames[0])[:frameHeader-3]) // a truncated header
	f.Add(oversizeHeader())
	f.Add([]byte(`{"op":"register","port":"n"}` + "\n")) // the old JSON line
	f.Add([]byte("\x00\xff{not a frame at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCenter(WithCenterErrorHandler(func(error) {}))
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			c.handleConn(server)
			close(done)
		}()
		// Drain broker responses so its writes never block the pipe.
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		client.Write(data) // error is fine: handler may have hung up
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("wire handler did not terminate")
		}
		// The broker must survive whatever the bytes did: a local port
		// still registers (the dead connection's remote ports were
		// reclaimed) and routes traffic.
		ch, err := c.Register("probe", 1)
		if err != nil {
			t.Fatalf("center unusable after fuzz input: %v", err)
		}
		if err := c.Send(Message{From: "probe", To: "probe", Kind: "alive"}); err != nil {
			t.Fatalf("center cannot route after fuzz input: %v", err)
		}
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("local delivery broken after fuzz input")
		}
	})
}

// FuzzFrameRoundTrip checks that any frame built from fuzzer-chosen
// fields survives a wire encode/decode cycle byte for byte, invalid UTF-8
// included, so the protocol cannot silently mangle port names, topics or
// payloads.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("register", "node-0", "", "", "", "", "", "", []byte(`{"x":1}`))
	f.Add("send", "", "events", "", "a", "b", "", "state", []byte(`null`))
	f.Add("error", "", "", "boom", "", "", "", "", []byte{})
	f.Add("deliver", "\xff\xfe", "", "", "w\x00", "r", "t", "fleet.result", []byte{0, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, op, port, topic, errText, from, to, msgTopic, kind string, payload []byte) {
		in := frame{
			Op:    op,
			Port:  port,
			Topic: topic,
			Err:   errText,
			Msg:   Message{From: from, To: to, Topic: msgTopic, Kind: kind, Payload: payload},
		}
		enc := encodeFrame(t, in)
		if len(enc) != frameHeader+in.bodyLen() {
			t.Fatalf("encoded %d bytes, want %d", len(enc), frameHeader+in.bodyLen())
		}
		out, err := readOne(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(out.Msg.Payload, in.Msg.Payload) {
			t.Fatalf("payload changed: %x -> %x", in.Msg.Payload, out.Msg.Payload)
		}
		out.Msg.Payload, in.Msg.Payload = nil, nil
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("frame changed: %+q -> %+q", in, out)
		}
	})
}
