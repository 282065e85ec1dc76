package agents

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// frame is the wire protocol unit. On the wire it is a fixed header and a
// body:
//
//	format byte (frameFormat)
//	body length, uint32 little endian, at most maxFrameBody
//	CRC-32C (Castagnoli) of the body, uint32 little endian
//	body: Op, Port, Topic, Err, Msg.From, Msg.To, Msg.Topic, Msg.Kind,
//	  each a uvarint length and the bytes, then Msg.Payload as the rest
//
// The broker routes on the envelope strings and never parses a payload.
// A frame that announces another format, more than maxFrameBody bytes or
// a body that fails its CRC is refused, and the reader drops the
// connection: a corrupted frame becomes a link loss, never a different
// frame (DESIGN.md §8).
type frame struct {
	// Op is "register", "unregister", "subscribe", "send", "publish",
	// "deliver" (server to client), "ping"/"pong" (liveness), or "error"
	// (server to client, asynchronous failure report).
	Op    string
	Port  string
	Topic string
	Msg   Message
	Err   string
}

const (
	frameFormat = 1
	frameHeader = 1 + 4 + 4
	// maxFrameBody bounds what a reader allocates for one frame.
	maxFrameBody = 16 << 20
	// maxKeptBuffer bounds the write buffer a connection keeps between
	// frames, so one large frame does not pin its size.
	maxKeptBuffer = 64 << 10
)

var (
	errFrameFormat  = errors.New("agents: peer speaks another frame format")
	errFrameTooLong = errors.New("agents: frame longer than the maximum")
	errFrameCRC     = errors.New("agents: frame fails its CRC")
	errFrameBody    = errors.New("agents: malformed frame body")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelope returns the frame's strings in wire order.
func (f *frame) envelope() [8]*string {
	return [8]*string{&f.Op, &f.Port, &f.Topic, &f.Err, &f.Msg.From, &f.Msg.To, &f.Msg.Topic, &f.Msg.Kind}
}

// bodyLen is the length of f's encoded body.
func (f *frame) bodyLen() int {
	n := len(f.Msg.Payload)
	for _, s := range f.envelope() {
		n += uvarintLen(len(*s)) + len(*s)
	}
	return n
}

func uvarintLen(n int) int {
	k := 1
	for ; n >= 0x80; n >>= 7 {
		k++
	}
	return k
}

// appendFrame appends f's encoding to b, or returns errFrameTooLong and b
// unchanged.
func appendFrame(b []byte, f *frame) ([]byte, error) {
	n := f.bodyLen()
	if n > maxFrameBody {
		return b, errFrameTooLong
	}
	start := len(b)
	b = append(b, frameFormat)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = append(b, 0, 0, 0, 0) // the CRC, once the body is written
	for _, s := range f.envelope() {
		b = append(binary.AppendUvarint(b, uint64(len(*s))), *s...)
	}
	b = append(b, f.Msg.Payload...)
	binary.LittleEndian.PutUint32(b[start+5:], crc32.Checksum(b[start+frameHeader:], castagnoli))
	return b, nil
}

// frameReader reads frames from one connection.
type frameReader struct {
	r   *bufio.Reader
	hdr [frameHeader]byte
}

// read reads the next frame into f. It returns io.EOF when the stream
// ends between frames, and io.ErrUnexpectedEOF when it ends inside one.
// The length is checked before the body is allocated; the body is fresh
// for every frame, and the payload shares it.
func (fr *frameReader) read(f *frame) error {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return err
	}
	if fr.hdr[0] != frameFormat {
		return errFrameFormat
	}
	n := binary.LittleEndian.Uint32(fr.hdr[1:])
	if n > maxFrameBody {
		return errFrameTooLong
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(fr.hdr[5:]) {
		return errFrameCRC
	}
	*f = frame{}
	for _, s := range f.envelope() {
		k, w := binary.Uvarint(body)
		if w <= 0 || k > uint64(len(body)-w) {
			return errFrameBody
		}
		*s = string(body[w : w+int(k)])
		body = body[w+int(k):]
	}
	if len(body) > 0 {
		f.Msg.Payload = body
	}
	return nil
}
