package agents

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestEveryBitFlipIsRefused flips each bit of a sample result, dispatch
// and ping frame in turn: every flip must be refused, none may decode to
// a different frame. The census by reason is DESIGN.md §8's.
func TestEveryBitFlipIsRefused(t *testing.T) {
	result := make([]byte, 120) // an opaque binary result body
	rand.New(rand.NewSource(49)).Read(result)
	samples := []struct {
		name string
		f    frame
	}{
		{"result", frame{Op: "send", Msg: Message{
			From: "pragma/fleet/worker/w1", To: "pragma/fleet/router", Kind: "fleet.result", Payload: result}}},
		{"dispatch", frame{Op: "deliver", Msg: Message{
			From: "pragma/fleet/router", To: "pragma/fleet/worker/w1", Kind: "fleet.dispatch",
			Payload: []byte(`{"runID":"run-000001","attempt":1,"spec":{"scenario":"octant=3 seed=7"}}`)}}},
		{"ping", frame{Op: "ping"}},
	}
	reasons := []error{errFrameFormat, errFrameTooLong, io.ErrUnexpectedEOF, errFrameCRC, errFrameBody}
	for _, s := range samples {
		enc := encodeFrame(t, s.f)
		census := make(map[error]int)
		for bit := 0; bit < 8*len(enc); bit++ {
			flipped := append([]byte(nil), enc...)
			flipped[bit/8] ^= 1 << (bit % 8)
			got, err := readOne(flipped)
			if err == nil {
				if !reflect.DeepEqual(got, s.f) {
					t.Errorf("%s: flipping bit %d decodes to a different frame %+q", s.name, bit, got)
				}
				continue
			}
			known := false
			for _, r := range reasons {
				if errors.Is(err, r) {
					census[r]++
					known = true
				}
			}
			if !known {
				t.Errorf("%s: flipping bit %d refused with unexpected error %v", s.name, bit, err)
			}
		}
		t.Logf("%s frame, %d bits: format %d, too long %d, truncated %d, CRC %d, body %d",
			s.name, 8*len(enc), census[errFrameFormat], census[errFrameTooLong],
			census[io.ErrUnexpectedEOF], census[errFrameCRC], census[errFrameBody])
	}
}

// TestFrameLongerThanMaximumRefused: a header announcing more than
// maxFrameBody is refused from the header alone, before anything is
// allocated or another byte read, and the broker drops the connection.
func TestFrameLongerThanMaximumRefused(t *testing.T) {
	hdr := oversizeHeader()
	src := bytes.NewReader(hdr)
	fr := frameReader{r: bufio.NewReader(src)}
	var f frame
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(hdr)
		fr.r.Reset(src)
		err = fr.read(&f)
	})
	if !errors.Is(err, errFrameTooLong) || allocs != 0 {
		t.Fatalf("read = %v with %v allocations, want errFrameTooLong with none", err, allocs)
	}

	// The broker refuses at the header; the body is never sent, so a
	// handler waiting for it would not return.
	errs := make(chan error, 1)
	c := NewCenter(WithCenterErrorHandler(func(err error) { errs <- err }))
	client, server := net.Pipe()
	go c.handleConn(server)
	defer client.Close()
	if _, err := client.Write(hdr); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if !errors.Is(err, errFrameTooLong) {
			t.Fatalf("broker reported %v, want errFrameTooLong", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("broker did not refuse the oversize header")
	}
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after an oversize header")
	}

	// A sender is refused before writing, and its link stays up.
	center, addr := startCenter(t)
	sink, err := center.Register("sink", 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := dialT(t, addr)
	big := Message{From: "src", To: "sink", Kind: "big", Payload: make([]byte, maxFrameBody)}
	if err := cl.Send(big); !errors.Is(err, errFrameTooLong) {
		t.Fatalf("oversize send = %v, want errFrameTooLong", err)
	}
	if err := cl.Send(Message{From: "src", To: "sink", Kind: "small"}); err != nil {
		t.Fatal(err)
	}
	if m := recvT(t, sink); m.Kind != "small" || cl.Degraded() {
		t.Fatalf("after an oversize send got %+v, degraded %v", m, cl.Degraded())
	}
}

// TestForeignFrameFormatRefused: a peer that speaks another frame format,
// here the JSON lines this protocol replaced, is refused at its first
// frame with errFrameFormat, on the broker's side and on the client's.
func TestForeignFrameFormatRefused(t *testing.T) {
	const line = `{"op":"register","port":"n"}` + "\n"

	t.Run("broker", func(t *testing.T) {
		errs := make(chan error, 1)
		c := NewCenter(WithCenterErrorHandler(func(err error) { errs <- err }))
		client, server := net.Pipe()
		go c.handleConn(server)
		defer client.Close()
		go client.Write([]byte(line))
		select {
		case err := <-errs:
			if !errors.Is(err, errFrameFormat) {
				t.Fatalf("broker reported %v, want errFrameFormat", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("broker did not refuse the JSON line")
		}
		if err := c.Send(Message{From: "x", To: "n", Kind: "k"}); err == nil {
			t.Fatal("the JSON line registered a port")
		}
	})

	t.Run("client", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			conn.Write([]byte(`{"op":"pong"}` + "\n"))
			io.Copy(io.Discard, conn)
		}()
		errs := make(chan error, 1)
		cl, err := Dial(ln.Addr().String(), WithErrorHandler(func(err error) {
			select {
			case errs <- err:
			default:
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		select {
		case err := <-errs:
			if !errors.Is(err, errFrameFormat) {
				t.Fatalf("client reported %v, want errFrameFormat", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("client did not refuse the JSON line")
		}
	})
}
