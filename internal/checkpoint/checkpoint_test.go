package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("pragma"), 1000)} {
		got, err := Decode(Encode(payload))
		if err != nil {
			t.Fatalf("decode(encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload: %d bytes in, %d out", len(payload), len(got))
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	valid := Encode([]byte(`{"state":42}`))

	if _, err := Decode([]byte("not a checkpoint at all")); !errors.Is(err, ErrNotCheckpoint) {
		t.Errorf("garbage: err = %v, want ErrNotCheckpoint", err)
	}
	if _, err := Decode(valid[:10]); !errors.Is(err, ErrNotCheckpoint) {
		t.Errorf("short header: err = %v, want ErrNotCheckpoint", err)
	}

	truncated := valid[:len(valid)-3]
	if _, err := Decode(truncated); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: err = %v, want ErrTruncated", err)
	}
	if _, err := Decode(append(append([]byte(nil), valid...), 0)); !errors.Is(err, ErrTruncated) {
		t.Errorf("trailing byte: err = %v, want ErrTruncated", err)
	}

	// Flip one payload byte: CRC must catch it.
	corrupt := append([]byte(nil), valid...)
	corrupt[headerSize+2] ^= 0x40
	if _, err := Decode(corrupt); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt payload: err = %v, want ErrCorrupt", err)
	}

	// Unknown version.
	future := append([]byte(nil), valid...)
	future[8] = 99
	if _, err := Decode(future); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
}

// dirNames lists a directory, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	return names
}

func save(t *testing.T, st *Store, seq int, payload string) string {
	t.Helper()
	p, err := st.Save(seq, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func seqs(recs []Record) []int {
	var out []int
	for _, r := range recs {
		out = append(out, r.Seq)
	}
	return out
}

func TestStoreSaveAndLatest(t *testing.T) {
	st := &Store{Dir: filepath.Join(t.TempDir(), "ckpts")}
	defer st.Close()
	for _, r := range []struct {
		seq  int
		body string
	}{{2, "two"}, {5, "five"}, {9, "nine"}} {
		save(t, st, r.seq, r.body)
	}
	seq, payload, err := st.Latest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 || string(payload) != "nine" {
		t.Fatalf("latest = (%d, %q), want (9, nine)", seq, payload)
	}
	recs, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	if got := seqs(recs); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("records = %v, want [2 5 9] in save order", got)
	}
}

// TestStoreLatestSkipsCorruptedAndTruncated: within a log, readers stop at
// the first damaged record (a torn or bit-flipped tail) and keep the
// prefix; a newest log with no valid record at all falls back to the
// previous one.
func TestStoreLatestSkipsCorruptedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	st := &Store{Dir: dir}
	save(t, st, 1, "good-old")
	save(t, st, 2, "good-mid")
	p := save(t, st, 3, "good-new")
	st.Close()
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := ParseLog(data)

	// Bit flip in the middle record: it and everything after it are gone.
	flipped := append([]byte(nil), data...)
	flipped[recs[0].End+headerSize+seqSize+1] ^= 1
	if err := os.WriteFile(p, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if seq, payload, err := st.Latest(nil); err != nil || seq != 1 || string(payload) != "good-old" {
		t.Fatalf("after a bit flip in record 2: latest = (%d, %q, %v), want (1, good-old)", seq, payload, err)
	}

	// A torn tail: the last record cut mid-payload.
	if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if seq, _, err := st.Latest(nil); err != nil || seq != 2 {
		t.Fatalf("after a torn tail: latest = (%d, %v), want 2", seq, err)
	}

	// A newer attempt that crashed before its first record was durable:
	// its log exists but holds only part of a record.
	next := &Store{Dir: dir}
	np := save(t, next, 7, "never-synced")
	next.Close()
	if err := os.WriteFile(p, data, 0o644); err != nil { // the older log, as the crash left it
		t.Fatal(err)
	}
	if err := os.Truncate(np, 10); err != nil {
		t.Fatal(err)
	}
	if seq, payload, err := st.Latest(nil); err != nil || seq != 3 || string(payload) != "good-new" {
		t.Fatalf("torn newest log: latest = (%d, %q, %v), want the older log's (3, good-new)", seq, payload, err)
	}
}

func TestStoreLatestHonorsAccept(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	defer st.Close()
	for seq := 1; seq <= 3; seq++ {
		if _, err := st.Save(seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	seq, _, err := st.Latest(func(seq int, payload []byte) error {
		if seq == 3 {
			return errors.New("wrong run configuration")
		}
		return nil
	})
	if err != nil || seq != 2 {
		t.Fatalf("latest = (%d, %v), want seq 2 after rejecting 3", seq, err)
	}
	_, _, err = st.Latest(func(int, []byte) error { return errors.New("no") })
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("everything rejected: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestStoreEmptyAndMissingDir(t *testing.T) {
	st := &Store{Dir: filepath.Join(t.TempDir(), "never-created")}
	if _, _, err := st.Latest(nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: err = %v, want ErrNoCheckpoint", err)
	}
	if recs, err := st.Records(); err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: records = %v, %v; want none", recs, err)
	}
}

// TestStorePruneKeepsNewest: each Store writes its own log, and a new
// log's first durable record unlinks every older one.
func TestStorePruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	var last string
	for attempt := 1; attempt <= 4; attempt++ {
		st := &Store{Dir: dir}
		for seq := 1; seq <= 3; seq++ {
			last = save(t, st, attempt*10+seq, "x")
		}
		st.Close()
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != filepath.Base(last) {
		t.Fatalf("after four attempts: %v, want only the newest log %s", names, filepath.Base(last))
	}
	recs, err := (&Store{Dir: dir}).Records()
	if err != nil {
		t.Fatal(err)
	}
	if got := seqs(recs); len(got) != 3 || got[0] != 41 || got[2] != 43 {
		t.Fatalf("records = %v, want the last attempt's [41 42 43]", got)
	}
}

// TestStoreZombieAppendsAreInvisible: an attempt that is still appending
// after a newer attempt took over writes into a log the newer one has
// unlinked, so no reader ever mixes the two histories.
func TestStoreZombieAppendsAreInvisible(t *testing.T) {
	dir := t.TempDir()
	zombie := &Store{Dir: dir}
	defer zombie.Close()
	save(t, zombie, 1, "zombie-1")
	next := &Store{Dir: dir}
	defer next.Close()
	save(t, next, 1, "next-1")
	save(t, zombie, 2, "zombie-2")
	save(t, next, 2, "next-2")
	recs, err := (&Store{Dir: dir}).Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Payload) != "next-1" || string(recs[1].Payload) != "next-2" {
		t.Fatalf("records after a zombie's appends: %q", recs)
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	defer st.Close()
	for _, name := range []string{"README.txt", "log-notanumber.ckpt", "ckpt-00000009.ckpt"} {
		if err := os.WriteFile(filepath.Join(st.Dir, name), Encode([]byte("hi")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Latest(nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("only foreign files: err = %v, want ErrNoCheckpoint", err)
	}
	save(t, st, 7, "seven")
	recs, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 7 {
		t.Fatalf("records = %+v, want just seq 7", recs)
	}
	if names := dirNames(t, st.Dir); len(names) != 4 {
		t.Fatalf("foreign files were touched: %v", names)
	}
}

// syncsDuring returns how many syncs f made, read from the sync histogram.
func syncsDuring(f func()) uint64 {
	before := metricSyncSeconds.Count()
	f()
	return metricSyncSeconds.Count() - before
}

// TestStoreSyncsAtCloseInsideTheBound: saves made within syncEvery of the
// log's creation only write; Close is the one sync.
func TestStoreSyncsAtCloseInsideTheBound(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	if n := syncsDuring(func() {
		for seq := 1; seq <= 5; seq++ {
			save(t, st, seq, "x")
		}
	}); n != 0 {
		t.Fatalf("5 saves inside the bound synced %d times, want 0", n)
	}
	if n := syncsDuring(func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Close synced %d times, want 1", n)
	}
}

// TestStoreSaveSyncsPastTheBound: a Save made syncEvery after the last
// sync syncs in that Save, and the clock restarts there.
func TestStoreSaveSyncsPastTheBound(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	defer st.Close()
	save(t, st, 1, "x")
	st.synced = time.Now().Add(-syncEvery)
	if n := syncsDuring(func() { save(t, st, 2, "x") }); n != 1 {
		t.Fatalf("a save past the bound synced %d times, want 1", n)
	}
	if st.dirty {
		t.Fatal("the log is still dirty after a sync")
	}
	if n := syncsDuring(func() { save(t, st, 3, "x") }); n != 0 {
		t.Fatalf("a save right after a sync synced %d times, want 0", n)
	}
}

// TestStoreCloseIsIdempotent: a second Close returns nil and syncs
// nothing; Save after Close fails, and Close reports an earlier failed
// append instead of vouching for the log.
func TestStoreCloseIsIdempotent(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	save(t, st, 1, "x")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := syncsDuring(func() {
		if err := st.Close(); err != nil {
			t.Fatalf("second Close: %v, want nil", err)
		}
	}); n != 0 {
		t.Fatalf("second Close synced %d times, want 0", n)
	}
	if _, err := st.Save(2, []byte("x")); err == nil {
		t.Fatal("Save after Close succeeded")
	}

	broken := &Store{Dir: t.TempDir()}
	save(t, broken, 1, "x")
	broken.f.Close() // the next append fails
	_, saveErr := broken.Save(2, []byte("x"))
	if saveErr == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if err := broken.Close(); err != saveErr {
		t.Fatalf("Close after a failed append: %v, want the append's error %v", err, saveErr)
	}
}

// TestStoreUnclosedRecordsAreVisible: a writer that dies without syncing
// (its process killed) leaves its records to every other reader on the
// host: they were written before Save returned.
func TestStoreUnclosedRecordsAreVisible(t *testing.T) {
	dir := t.TempDir()
	dead := &Store{Dir: dir}
	for seq := 1; seq <= 3; seq++ {
		save(t, dead, seq, "x")
	}
	recs, err := (&Store{Dir: dir}).Records()
	if err != nil {
		t.Fatal(err)
	}
	if got := seqs(recs); len(got) != 3 || got[2] != 3 {
		t.Fatalf("records of an unclosed store = %v, want [1 2 3]", got)
	}
	dead.f.Close()
}

// TestStoreOlderLogSurvivesUntilFirstSync: a newer Store's saves leave the
// older log on disk until the newer log is synced; its first sync unlinks
// it.
func TestStoreOlderLogSurvivesUntilFirstSync(t *testing.T) {
	dir := t.TempDir()
	old := &Store{Dir: dir}
	oldPath := save(t, old, 1, "old")
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	next := &Store{Dir: dir}
	var nextPath string
	for seq := 1; seq <= 3; seq++ {
		nextPath = save(t, next, seq, "next")
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Fatalf("before the newer log's first sync: %v, want both logs", names)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != filepath.Base(nextPath) {
		t.Fatalf("after the newer log's first sync: %v, want only %s (%s unlinked)",
			names, filepath.Base(nextPath), filepath.Base(oldPath))
	}
}

// TestSaveLeavesNoTempFiles: a log is the only file a Store writes, and
// one Store writes one log however many records it saves.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	for seq := 1; seq <= 5; seq++ {
		save(t, st, seq, "x")
	}
	st.Close()
	if names := dirNames(t, st.Dir); len(names) != 1 || names[0] != "log-00000001.ckpt" {
		t.Fatalf("directory holds %v, want [log-00000001.ckpt]", names)
	}
	if _, err := st.Save(6, []byte("x")); err == nil {
		t.Fatal("Save after Close succeeded")
	}
}

// allocatedBy returns the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestScanHostileLength: a header whose length runs past the end of the
// log is a torn tail, found before the record is read: a log whose last
// header claims 2^62 bytes yields its valid prefix, and the scan
// allocates one record's buffer for the four records it reads.
func TestScanHostileLength(t *testing.T) {
	const size = 256 << 10
	st := &Store{Dir: t.TempDir()}
	var p string
	for seq := 1; seq <= 4; seq++ {
		p = save(t, st, seq, string(bytes.Repeat([]byte{byte(seq)}, size)))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	hostile := logRecord(5, []byte("x"))[:headerSize]
	binary.LittleEndian.PutUint64(hostile[12:], 1<<62)
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(hostile, "a little more"...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got := make([]int, 0, 8)
	var scanErr error
	allocated := allocatedBy(func() {
		scanErr = st.Scan(func(seq int, payload []byte) bool {
			if len(payload) == size && payload[0] == byte(seq) && payload[size-1] == byte(seq) {
				got = append(got, seq)
			}
			return true
		})
	})
	if scanErr != nil || !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("scan = %v, %v; want the four intact records before the hostile header", got, scanErr)
	}
	if limit := uint64(size + headerSize + seqSize + 32<<10); allocated > limit {
		t.Fatalf("scan allocated %d bytes, want at most one %d-byte record and small change (%d)", allocated, size, limit)
	}
}

// TestScanReturnsReadErrors: a log that cannot be read is an error, not a
// torn tail and not a reason to fall back to an older log — here a
// directory named like the newest log.
func TestScanReturnsReadErrors(t *testing.T) {
	dir := t.TempDir()
	st := &Store{Dir: dir}
	save(t, st, 1, "older")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "log-00000002.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Scan(func(int, []byte) bool { return true }); err == nil {
		t.Fatal("Scan over an unreadable log returned no error")
	}
	if recs, err := st.Records(); err == nil {
		t.Fatalf("Records over an unreadable log = %v, want an error", recs)
	}
	if _, _, err := st.Latest(nil); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest over an unreadable log: err = %v, want the read error", err)
	}
}

// TestScanStopsWhereVisitSays: visit returning false ends the scan, and a
// log with a valid record is the one scanned even when visit stops at its
// first: Scan never walks back past it.
func TestScanStopsWhereVisitSays(t *testing.T) {
	dir := t.TempDir()
	for attempt := 1; attempt <= 2; attempt++ {
		st := &Store{Dir: dir}
		save(t, st, attempt*10+1, "a")
		save(t, st, attempt*10+2, "b")
		st.f.Close() // no Close, so no sync prunes the older log

	}
	var got []int
	err := (&Store{Dir: dir}).Scan(func(seq int, _ []byte) bool {
		got = append(got, seq)
		return false
	})
	if err != nil || !slices.Equal(got, []int{21}) {
		t.Fatalf("scan = %v, %v; want only the newest log's first record", got, err)
	}
}
