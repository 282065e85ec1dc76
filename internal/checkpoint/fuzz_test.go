package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// logRecord is the bytes Store.Save appends for one record.
func logRecord(seq int, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, uint64(int64(seq)))
	return Encode(append(body, payload...))
}

// FuzzCheckpointDecode throws arbitrary bytes at the container decoder and
// at the log readers: none may panic, anything the decoder accepts must
// re-encode to a container that decodes to the same payload, the records
// ParseLog returns must be exactly the CRC-valid records that tile the
// data from its first byte, in order, and Store.Scan over the same bytes
// written as a log must visit exactly ParseLog's (seq, payload) list.
// These are the parsers a resuming run trusts with whatever a crash left
// on disk.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PRGMCKPT"))
	f.Add(Encode(nil))
	f.Add(Encode([]byte(`{"nextIndex":3,"simTime":1.5}`)))
	valid := Encode(bytes.Repeat([]byte{0xA5}, 64))
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // truncated
	flipped := append([]byte(nil), valid...)
	flipped[headerSize] ^= 1 // corrupted payload
	f.Add(flipped)
	log := append(logRecord(1, []byte("one")), logRecord(2, bytes.Repeat([]byte{7}, 40))...)
	f.Add(log)
	f.Add(log[:len(log)-5])                       // torn tail
	f.Add(append(log, logRecord(-3, nil)[:9]...)) // a partial header after two records
	oversize := logRecord(3, []byte("x"))
	binary.LittleEndian.PutUint64(oversize[12:], 1<<62)
	f.Add(append(bytes.Clone(log), oversize...))                      // a length past any file
	f.Add(append(bytes.Clone(log), "foreign bytes after the log"...)) // not a record at all

	st := &Store{Dir: f.TempDir()}
	path := st.path(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := Decode(data); err == nil {
			again, err := Decode(Encode(payload))
			if err != nil {
				t.Fatalf("accepted payload fails round trip: %v", err)
			}
			if !bytes.Equal(again, payload) {
				t.Fatalf("round trip changed payload: %x vs %x", again, payload)
			}
		}
		off := 0
		for i, r := range ParseLog(data) {
			want := logRecord(r.Seq, r.Payload)
			if r.End != off+len(want) || !bytes.Equal(data[off:r.End], want) {
				t.Fatalf("record %d (seq %d) at [%d, %d) is not a valid record of the input", i, r.Seq, off, r.End)
			}
			off = r.End
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := ParseLog(data)
		i := 0
		err := st.Scan(func(seq int, payload []byte) bool {
			if i >= len(want) || seq != want[i].Seq || !bytes.Equal(payload, want[i].Payload) {
				t.Fatalf("Scan's record %d is (%d, %x), ParseLog's %d records disagree", i, seq, payload, len(want))
			}
			i++
			return true
		})
		if err != nil || i != len(want) {
			t.Fatalf("Scan visited %d records (%v), ParseLog returns %d", i, err, len(want))
		}
	})
}
