// Package checkpoint persists run state so a crashed replay can resume
// instead of losing the whole run — the recovery half of Pragma's "respond
// to system failures" reactive management (§3.4.2). It provides a small,
// format-versioned container (magic, version, length, CRC-32C over the
// payload) and a directory Store of append-only logs: every Save appends
// one container-framed record to the log its Store owns, and readers take
// the longest valid prefix of the newest log that has one.
//
// Store.Scan is the one read path; Records and Latest are built on it.
// It streams a log through one record buffer, so a reader holds the
// largest record, not the log: a resume costs the same memory however
// long the run has been checkpointing. ParseLog is its in-memory
// reference.
//
// A record is visible once Save returns: it is one write, so every reader
// on the host sees it and it survives the death of the writing process.
// It is durable once the Store syncs, which Close does and which a Save
// does when the log's last sync is syncEvery old. Only a host crash or a
// power loss tells the two apart, and it costs at most the records
// appended since the last sync; a resume from any valid prefix of a log
// is as good as one from the whole log.
//
// The package is payload-agnostic: callers serialize their own state
// (internal/core writes a binary record per regrid boundary) and this
// layer guarantees that whatever is read back is exactly what was
// written, or nothing — never silently damaged state.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Format constants. A container is:
//
//	offset 0:  magic "PRGMCKPT" (8 bytes)
//	offset 8:  version, uint32 little-endian
//	offset 12: payload length, uint64 little-endian
//	offset 20: CRC-32C (Castagnoli) of the payload, uint32 little-endian
//	offset 24: payload
//
// Truncation is caught by the length field, payload damage by the CRC, and
// future incompatible layouts by the version. A log record is one
// container whose payload is the record's sequence number (int64
// little-endian) followed by the caller's payload.
const (
	magic      = "PRGMCKPT"
	headerSize = 24
	seqSize    = 8
	// Version is the current container format version.
	Version = 1
)

// Sentinel decode errors. All of them mean "these bytes are not a usable
// checkpoint"; the log reader stops at the first record that fails.
var (
	// ErrNotCheckpoint marks data without the checkpoint magic.
	ErrNotCheckpoint = errors.New("checkpoint: not a checkpoint file")
	// ErrVersion marks a container version this code does not understand.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrTruncated marks data shorter (or longer) than its header promises.
	ErrTruncated = errors.New("checkpoint: truncated file")
	// ErrCorrupt marks a payload whose CRC does not match.
	ErrCorrupt = errors.New("checkpoint: payload CRC mismatch")
	// ErrNoCheckpoint is returned by Latest when no valid checkpoint exists.
	ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode wraps a payload in the checkpoint container.
func Encode(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out[headerSize:], payload)
	putHeader(out)
	return out
}

// putHeader fills in the header of a container whose payload is
// c[headerSize:].
func putHeader(c []byte) {
	payload := c[headerSize:]
	copy(c, magic)
	binary.LittleEndian.PutUint32(c[8:], Version)
	binary.LittleEndian.PutUint64(c[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(c[20:], crc32.Checksum(payload, castagnoli))
}

// Decode validates a checkpoint container and returns its payload.
func Decode(data []byte) ([]byte, error) {
	payload, n, err := frame(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: header says %d payload bytes, file has %d",
			ErrTruncated, len(payload), len(data)-headerSize)
	}
	return payload, nil
}

// frame validates the container at the start of data and returns its
// payload and the container's total size. Bytes after it are not looked at.
func frame(data []byte) (payload []byte, n int, err error) {
	length, err := header(data)
	if err != nil {
		return nil, 0, err
	}
	if length > uint64(len(data)-headerSize) {
		return nil, 0, fmt.Errorf("%w: header says %d payload bytes, file has %d",
			ErrTruncated, length, len(data)-headerSize)
	}
	n = headerSize + int(length)
	payload = data[headerSize:n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[20:]) {
		return nil, 0, ErrCorrupt
	}
	return payload, n, nil
}

// header checks the container header at the start of h and returns the
// payload length it promises.
func header(h []byte) (uint64, error) {
	if len(h) < headerSize || string(h[:8]) != magic {
		return 0, ErrNotCheckpoint
	}
	if v := binary.LittleEndian.Uint32(h[8:]); v != Version {
		return 0, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	return binary.LittleEndian.Uint64(h[12:]), nil
}

// Record is one valid record of a log.
type Record struct {
	// Seq is the caller-chosen sequence number (core: the next regrid).
	Seq int
	// Payload is the caller's bytes: a slice of the data ParseLog was
	// given, a copy in what Records returns.
	Payload []byte
	// End is the offset just past this record in the log.
	End int
}

// ParseLog returns the valid prefix of a log's contents, in order: it
// stops at the first torn, CRC-damaged or foreign record, because a crash
// can only damage the tail that was being appended. It is the reference
// Scan, which reads a log file without holding it, is tested against.
func ParseLog(data []byte) []Record {
	var recs []Record
	for off := 0; off < len(data); {
		body, n, err := frame(data[off:])
		if err != nil || len(body) < seqSize {
			break
		}
		off += n
		recs = append(recs, Record{
			Seq:     int(int64(binary.LittleEndian.Uint64(body))),
			Payload: body[seqSize:],
			End:     off,
		})
	}
	return recs
}

// Store is a directory of append-only checkpoint logs, one per Store
// value that has saved: the first Save creates the next log
// (log-<n>.ckpt, n one past the newest in the directory, created
// exclusively), so each log has exactly one writer — one attempt of one
// run. A Store is not safe for concurrent use.
type Store struct {
	// Dir is the checkpoint directory; Save creates it on demand.
	Dir string

	f      *os.File  // this Store's log, open once Save has created it
	num    int       // its number
	buf    []byte    // the record being written, reused across saves
	werr   error     // sticky: a failed append or sync leaves the log's tail unknown
	dirty  bool      // records appended since the last sync
	synced time.Time // the last sync; the log's creation before its first
	pruned bool      // the first sync made the log's entry durable and unlinked older logs
	closed bool
}

const (
	logPrefix = "log-"
	logSuffix = ".ckpt"

	// syncEvery bounds how long an appended record can stay unsynced
	// while the Store keeps saving: a Save syncs when the log's last sync
	// is at least this old.
	syncEvery = time.Second
)

func (s *Store) path(n int) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%s%08d%s", logPrefix, n, logSuffix))
}

// Save appends one record with the given sequence number to this Store's
// log with one write of the container and returns the log's path. The
// record is visible when Save returns and durable after the next sync:
// Close syncs, and so does a Save made at least syncEvery after the last
// sync. The first Save creates the log. Older logs stay on disk until its
// first sync, which fsyncs the directory, unlinks them and fsyncs the
// directory again, so a power loss before then finds the previous log
// intact.
func (s *Store) Save(seq int, payload []byte) (string, error) {
	start := time.Now()
	err := s.save(seq, payload)
	if err != nil {
		metricWritesFailed.Inc()
		return "", err
	}
	metricWriteSeconds.Observe(time.Since(start).Seconds())
	metricBytesWritten.Add(uint64(headerSize + seqSize + len(payload)))
	metricWritesOK.Inc()
	return s.f.Name(), nil
}

func (s *Store) save(seq int, payload []byte) error {
	if s.werr != nil {
		return s.werr
	}
	if s.f == nil {
		if err := s.create(); err != nil {
			return err
		}
	}
	s.buf = append(s.buf[:0], make([]byte, headerSize+seqSize)...)
	binary.LittleEndian.PutUint64(s.buf[headerSize:], uint64(int64(seq)))
	s.buf = append(s.buf, payload...)
	putHeader(s.buf)
	if _, err := s.f.Write(s.buf); err != nil {
		s.werr = fmt.Errorf("checkpoint: append %s: %w", s.f.Name(), err)
		return s.werr
	}
	s.dirty = true
	if time.Since(s.synced) >= syncEvery {
		return s.sync()
	}
	return nil
}

// sync makes every record appended so far durable. A log's first sync
// then makes its directory entry durable, unlinks every older log and
// fsyncs the directory again. A failed sync is sticky: after it the
// kernel may have dropped the dirty pages, so no later sync can vouch
// for them.
func (s *Store) sync() error {
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		s.werr = fmt.Errorf("checkpoint: sync %s: %w", s.f.Name(), err)
		return s.werr
	}
	if !s.pruned {
		if err := syncDir(s.Dir); err != nil {
			s.werr = err
			return err
		}
		s.pruned = true
		s.unlinkOlder()
	}
	s.dirty = false
	s.synced = time.Now()
	metricSyncSeconds.Observe(s.synced.Sub(start).Seconds())
	return nil
}

// unlinkOlder removes every log older than this Store's. Its records and
// directory entry are durable by now, so the older logs are only clutter:
// a failure here is not an error.
func (s *Store) unlinkOlder() {
	logs, err := s.logs()
	if err != nil {
		return
	}
	removed := false
	for _, n := range logs {
		if n < s.num && os.Remove(s.path(n)) == nil {
			removed = true
		}
	}
	if removed {
		// Not needed for correctness (readers prefer the newest log), but
		// without it a power loss could bring the old logs back.
		syncDir(s.Dir)
	}
}

// create opens the log this Store writes: one past the newest in the
// directory, created exclusively so two attempts never share a log.
func (s *Store) create() error {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for {
		logs, err := s.logs()
		if err != nil {
			return err
		}
		n := 1
		if len(logs) > 0 {
			n = logs[len(logs)-1] + 1
		}
		f, err := os.OpenFile(s.path(n), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue // another attempt took n between the listing and here
		}
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		s.f, s.num, s.synced = f, n, time.Now()
		return nil
	}
}

// Close is the Store's barrier: it syncs whatever was appended since the
// last sync, closes the log and returns the sync's error (or the error of
// an earlier failed append or sync, whose records it cannot vouch for).
// Only once it returns nil are all of this Store's records durable. A
// second Close returns nil; a Save after Close fails.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.f != nil {
		if err = s.werr; err == nil && s.dirty {
			err = s.sync()
		}
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
	}
	if s.werr == nil {
		s.werr = fmt.Errorf("checkpoint: %s: store closed", s.Dir)
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync %s: %w", dir, err)
	}
	return nil
}

// logs lists the numbers of the directory's logs, ascending. Other files
// are ignored; a missing directory has none.
func (s *Store) logs() ([]int, error) {
	des, err := os.ReadDir(s.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out []int
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, logPrefix) || !strings.HasSuffix(name, logSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, logPrefix), logSuffix))
		if err != nil || n < 1 {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// Scan calls visit on each valid record of the newest log that has at
// least one, in the order they were saved, up to its first torn, foreign
// or CRC-damaged record, and stops early when visit returns false. It
// walks back to an older log only when every newer one has no valid
// record (an attempt whose host crashed before its first sync); what
// visit returns does not change which log that is. payload is valid only
// during the call: Scan reads through one bufio.Reader into one record
// buffer, reused across records and logs, so it holds one record however
// long the log is. A failed read is returned, not taken for a torn tail;
// a missing directory has no records.
func (s *Store) Scan(visit func(seq int, payload []byte) bool) error {
	logs, err := s.logs()
	if err != nil {
		return err
	}
	var sc scanner
	for i := len(logs) - 1; i >= 0; i-- {
		found, err := sc.log(s.path(logs[i]), visit)
		if found || err != nil {
			return err
		}
	}
	return nil
}

// scanner is Scan's read state, kept across the logs it walks.
type scanner struct {
	br  *bufio.Reader
	buf []byte // the record being read
}

// log visits the valid prefix of one log and reports whether it has a
// valid record. A log unlinked since the listing has none. The length in
// a record's header is checked against what the log had left when it was
// opened before the record is read, so a torn or hostile header costs no
// allocation.
func (sc *scanner) log(path string, visit func(int, []byte) bool) (found bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("checkpoint: %w", err)
	}
	left := fi.Size()
	if sc.br == nil {
		sc.br = bufio.NewReader(f)
	} else {
		sc.br.Reset(f)
	}
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(sc.br, hdr[:]); err != nil {
			return found, readErr(err)
		}
		left -= headerSize
		length, err := header(hdr[:])
		if err != nil || left < 0 || length > uint64(left) || length < seqSize {
			return found, nil
		}
		n := int(length)
		if n > cap(sc.buf) {
			sc.buf = make([]byte, max(n, min(2*cap(sc.buf), int(left))))
		}
		body := sc.buf[:n]
		if _, err := io.ReadFull(sc.br, body); err != nil {
			return found, readErr(err)
		}
		left -= int64(n)
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[20:]) {
			return found, nil
		}
		found = true
		if !visit(int(int64(binary.LittleEndian.Uint64(body))), body[seqSize:]) {
			return true, nil
		}
	}
}

// readErr is what a failed read of a log means: nothing at its end,
// where a torn tail ends the log, and an error otherwise.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return fmt.Errorf("checkpoint: %w", err)
}

// Records returns the records Scan visits, each payload copied.
func (s *Store) Records() ([]Record, error) {
	var recs []Record
	end := 0
	err := s.Scan(func(seq int, payload []byte) bool {
		end += headerSize + seqSize + len(payload)
		recs = append(recs, Record{Seq: seq, Payload: bytes.Clone(payload), End: end})
		return true
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// Latest returns the newest record Scan visits that accept, when
// non-nil, does not reject (e.g. one recorded for a different run
// configuration); accept sees every record, oldest first, with a payload
// valid only during the call. Only the newest accepted payload is kept,
// as a copy. Returns ErrNoCheckpoint when nothing usable exists, naming
// the oldest record's rejection.
func (s *Store) Latest(accept func(seq int, payload []byte) error) (int, []byte, error) {
	var (
		seq      int
		kept     []byte
		found    bool
		firstErr error
	)
	err := s.Scan(func(sq int, payload []byte) bool {
		if accept != nil {
			if err := accept(sq, payload); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return true
			}
		}
		seq, kept, found = sq, append(kept[:0], payload...), true
		return true
	})
	switch {
	case err != nil:
		return 0, nil, err
	case found:
		return seq, kept, nil
	case firstErr != nil:
		return 0, nil, fmt.Errorf("%w (last failure: %v)", ErrNoCheckpoint, firstErr)
	}
	return 0, nil, ErrNoCheckpoint
}
