package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

// Crash-point enumeration for the checkpoint log, in the manner of Pillai
// et al. (OSDI'14): take the files two attempts of one run leave behind,
// cut or damage them everywhere a crash or the disk could, and require
// every resume to continue at the last intact record and finish with the
// uninterrupted run's RunResult — the golden one for the SmallConfig
// adaptive case.

// The container header is 24 bytes, then the record's 8-byte sequence
// number, then the core record.
const (
	frameHeader = 24
	frameSeq    = 8
)

// stopAt closes stop when the run enters regrid at, so that interval
// completes, is checkpointed, and the run stops at the next boundary.
type stopAt struct {
	Strategy
	at   int
	stop chan struct{}
}

func (s *stopAt) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	if ctx.Index == s.at {
		close(s.stop)
	}
	return s.Strategy.Assign(ctx)
}

// crashConfig is the golden SmallConfig case at 8 procs, checkpointing
// every regrid into dir.
func crashConfig(dir string) RunConfig {
	return RunConfig{
		Machine: cluster.SP2(8), NProcs: 8, WorkModel: rm3d.SmallConfig().WorkModel,
		CheckpointDir: dir, CheckpointEvery: 1,
	}
}

// interruptedAfter runs one attempt that stops after regrid at and checks
// that it reports the boundary it stopped at.
func interruptedAfter(t *testing.T, tr *samr.Trace, strat Strategy, cfg RunConfig, at int) {
	t.Helper()
	s := &stopAt{Strategy: strat, at: at, stop: make(chan struct{})}
	cfg.Interrupt = s.stop
	_, err := Run(tr, s, cfg)
	var ie *InterruptedError
	if !errors.As(err, &ie) || ie.Next != at+1 {
		t.Fatalf("attempt stopping after regrid %d returned %v, want an interrupt at %d", at, err, at+1)
	}
}

// resumesAt checks where a resume against dir would continue: an attempt
// whose interrupt is already closed stops before its first interval and
// writes nothing.
func resumesAt(t *testing.T, tr *samr.Trace, strat Strategy, dir string) int {
	t.Helper()
	stop := make(chan struct{})
	close(stop)
	cfg := crashConfig(dir)
	cfg.Resume, cfg.Interrupt = true, stop
	_, err := Run(tr, strat, cfg)
	var ie *InterruptedError
	if !errors.As(err, &ie) || ie.Completed != 0 {
		t.Fatalf("probe resume returned %v, want an interrupt before any interval", err)
	}
	return ie.Next
}

type logFile struct {
	name string
	data []byte
}

func readLogs(t *testing.T, dir string) []logFile {
	t.Helper()
	var out []logFile
	for _, name := range logNames(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, logFile{name, data})
	}
	return out
}

// checkResume lays files out in a fresh directory and resumes from it: the
// resume must continue at regrid wantNext and finish with want.
func checkResume(t *testing.T, tr *samr.Trace, strat func() Strategy, files []logFile, wantNext int, want *RunResult) {
	t.Helper()
	dir := t.TempDir()
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if next := resumesAt(t, tr, strat(), dir); next != wantNext {
		t.Fatalf("resume continues at regrid %d, want %d (the last intact record)", next, wantNext)
	}
	cfg := crashConfig(dir)
	cfg.Resume = true
	res, err := Run(tr, strat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, want)
}

func TestCrashPointsResumeAtLastIntactRecord(t *testing.T) {
	tr := testTrace(t)
	strat := func() Strategy { return Adaptive{ImbalanceGuard: 20} }
	want := goldenResult(t, "rm3d-small/adaptive/8")
	const k = 15
	dir := t.TempDir()

	// Attempt 1 stops after regrid k; attempt 2 resumes and finishes.
	interruptedAfter(t, tr, strat(), crashConfig(dir), k)
	first := readLogs(t, dir)
	if len(first) == 1 && len(checkpoint.ParseLog(first[0].data)) != k+1 {
		t.Fatalf("attempt 1 wrote %d records for %d boundaries: the drain right after a regular save must not repeat it",
			len(checkpoint.ParseLog(first[0].data)), k+1)
	}
	cfg := crashConfig(dir)
	cfg.Resume = true
	res, err := Run(tr, strat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, want)
	second := readLogs(t, dir)
	if len(first) != 1 || len(second) != 1 || first[0].name == second[0].name {
		t.Fatalf("logs after attempt 1: %d, after attempt 2: %d; want one each, the second replacing the first", len(first), len(second))
	}
	older, newest := first[0], second[0]
	recs := checkpoint.ParseLog(newest.data)
	if len(recs) != len(tr.Snapshots)-k-2 || recs[0].Seq != k+2 {
		t.Fatalf("attempt 2 wrote %d records from regrid %d, want %d from %d", len(recs), recs[0].Seq, len(tr.Snapshots)-k-2, k+2)
	}
	start := func(i int) int {
		if i == 0 {
			return 0
		}
		return recs[i-1].End
	}
	cut := func(n int) logFile { return logFile{newest.name, newest.data[:n]} }

	// A crash right after record i-1 was synced. With no record of
	// attempt 2 durable, its first-record directory sync and the
	// unlinking never happened: attempt 1's log is still there.
	for i := 0; i <= len(recs); i++ {
		files, wantNext := []logFile{cut(start(i))}, k+1
		if i == 0 {
			files = append(files, older)
		} else {
			wantNext = recs[i-1].Seq
		}
		t.Run(fmt.Sprintf("boundary-%d", i), func(t *testing.T) {
			checkResume(t, tr, strat, files, wantNext, want)
		})
	}

	// A crash after attempt 2's first record was synced but before the
	// older log was unlinked: the newest log with a valid record wins.
	t.Run("before-unlink", func(t *testing.T) {
		checkResume(t, tr, strat, []logFile{cut(recs[0].End), older}, recs[0].Seq, want)
	})

	// A crash mid-append of one of the last three records.
	for i := len(recs) - 3; i < len(recs); i++ {
		size := recs[i].End - start(i)
		for _, off := range []int{1, 8, 12, frameHeader - 1, frameHeader, frameHeader + frameSeq, size / 2, size - 1} {
			files := []logFile{cut(start(i) + off)}
			t.Run(fmt.Sprintf("torn-record-%d/offset-%d", i, off), func(t *testing.T) {
				checkResume(t, tr, strat, files, recs[i-1].Seq, want)
			})
		}
	}

	// A first record torn anywhere: walk back to attempt 1's log.
	for _, off := range []int{1, frameHeader, frameHeader + frameSeq, recs[0].End / 2, recs[0].End - 1} {
		files := []logFile{older, cut(off)}
		t.Run(fmt.Sprintf("walk-back/offset-%d", off), func(t *testing.T) {
			checkResume(t, tr, strat, files, k+1, want)
		})
	}

	// One bit flipped in each record, somewhere in its header, sequence
	// number or body. Damage to the first record, once attempt 1's log
	// is gone, leaves nothing valid: the run starts over.
	for i := range recs {
		size := recs[i].End - start(i)
		pos := start(i) + [...]int{i % frameHeader, frameHeader + i%frameSeq, frameHeader + frameSeq + (i*131)%(size-frameHeader-frameSeq), size - 1}[i%4]
		data := append([]byte(nil), newest.data...)
		data[pos] ^= 1 << (i % 8)
		wantNext := 0
		if i > 0 {
			wantNext = recs[i-1].Seq
		}
		t.Run(fmt.Sprintf("bitflip-record-%d", i), func(t *testing.T) {
			checkResume(t, tr, strat, []logFile{{newest.name, data}}, wantNext, want)
		})
	}
}

// TestCrashUnsyncedTails: the crash states of a log that has not been
// synced. An attempt syncs when it ends or is interrupted (and in a save a
// second after its last sync), so a power loss can leave any prefix of
// its unsynced records, in whatever order the page cache wrote them back,
// beside the older log its first sync would have unlinked.
func TestCrashUnsyncedTails(t *testing.T) {
	tr := testTrace(t)
	strat := func() Strategy { return Adaptive{ImbalanceGuard: 20} }
	want := goldenResult(t, "rm3d-small/adaptive/8")
	const k = 15
	dir := t.TempDir()

	interruptedAfter(t, tr, strat(), crashConfig(dir), k)
	first := readLogs(t, dir)
	cfg := crashConfig(dir)
	cfg.Resume = true
	if _, err := Run(tr, strat(), cfg); err != nil {
		t.Fatal(err)
	}
	second := readLogs(t, dir)
	if len(first) != 1 || len(second) != 1 || first[0].name == second[0].name {
		t.Fatalf("logs after attempt 1: %d, after attempt 2: %d; want one each, the second replacing the first", len(first), len(second))
	}
	older, newest := first[0], second[0]
	recs := checkpoint.ParseLog(newest.data)
	start := func(i int) int {
		if i == 0 {
			return 0
		}
		return recs[i-1].End
	}
	// lastIntact is where a resume continues when the newest log's records
	// from i on are lost: the record before i, or attempt 1's last record
	// when the newest log has none.
	lastIntact := func(i int) int {
		if i == 0 {
			return k + 1
		}
		return recs[i-1].Seq
	}

	// Before the newest log's first sync: it holds any prefix of its
	// records, and the older log is still on disk.
	for i := 0; i <= len(recs); i++ {
		files := []logFile{older, {newest.name, newest.data[:start(i)]}}
		t.Run(fmt.Sprintf("before-first-sync/boundary-%d", i), func(t *testing.T) {
			checkResume(t, tr, strat, files, lastIntact(i), want)
		})
	}

	// The newest log's directory entry never reached the disk.
	t.Run("newest-log-missing", func(t *testing.T) {
		checkResume(t, tr, strat, []logFile{older}, k+1, want)
	})

	// Reordered writeback: record i reads as zeros while every later record
	// reached the disk. The resume stops before the hole, with the older
	// log beside it (before the first sync) or without it (the unsynced
	// tail after a sync).
	for i := range recs {
		data := append([]byte(nil), newest.data...)
		clear(data[start(i):recs[i].End])
		t.Run(fmt.Sprintf("hole-record-%d/with-older", i), func(t *testing.T) {
			checkResume(t, tr, strat, []logFile{older, {newest.name, data}}, lastIntact(i), want)
		})
		if i > 0 {
			t.Run(fmt.Sprintf("hole-record-%d/alone", i), func(t *testing.T) {
				checkResume(t, tr, strat, []logFile{{newest.name, data}}, lastIntact(i), want)
			})
		}
	}

	// The log's size reached the disk but its data did not: zeros from
	// record i to a page past the log's end (i = len(recs): every record
	// intact, then zeros).
	for i := 0; i <= len(recs); i++ {
		data := append(append([]byte(nil), newest.data[:start(i)]...), make([]byte, len(newest.data)-start(i)+4096)...)
		t.Run(fmt.Sprintf("zero-tail-%d", i), func(t *testing.T) {
			checkResume(t, tr, strat, []logFile{older, {newest.name, data}}, lastIntact(i), want)
		})
	}
}

// perAttempt decides every regrid with its own partitioner, so two
// attempts of one run make different decisions. All of them share one
// name, so each resumes the others' checkpoints.
type perAttempt struct{ p partition.Partitioner }

func (s perAttempt) Name() string { return "per-attempt" }
func (s perAttempt) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	return Static{P: s.p}.Assign(ctx)
}

// schedule decides regrid idx as the attempt that ran it did: with
// parts[i] while idx < until[i].
type schedule struct {
	parts []partition.Partitioner
	until []int
}

func (s schedule) Name() string { return "per-attempt" }
func (s schedule) Assign(ctx *StepContext) (*partition.Assignment, string, error) {
	i := 0
	for i < len(s.until)-1 && ctx.Index >= s.until[i] {
		i++
	}
	return Static{P: s.parts[i]}.Assign(ctx)
}

func attemptPartitioners(t *testing.T) []partition.Partitioner {
	t.Helper()
	var parts []partition.Partitioner
	for _, name := range []string{"SFC", "G-MISP+SP", "pBD-ISP"} {
		p, err := partition.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	return parts
}

// scheduled is the uninterrupted run that makes each regrid's decision as
// the attempt that ran it.
func scheduled(t *testing.T, tr *samr.Trace, parts []partition.Partitioner, until ...int) *RunResult {
	t.Helper()
	res, err := Run(tr, schedule{parts, until}, crashConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPerAttemptDecisionsResumeOneHistory: three attempts with different
// decisions each continue exactly where the previous one's log ends, so
// the result is the one history they made together.
func TestPerAttemptDecisionsResumeOneHistory(t *testing.T) {
	tr := testTrace(t)
	parts := attemptPartitioners(t)
	n := len(tr.Snapshots)
	dir := t.TempDir()
	resume := crashConfig(dir)
	resume.Resume = true

	interruptedAfter(t, tr, perAttempt{parts[0]}, crashConfig(dir), 9)
	interruptedAfter(t, tr, perAttempt{parts[1]}, resume, 24)
	res, err := Run(tr, perAttempt{parts[2]}, resume)
	if err != nil {
		t.Fatal(err)
	}
	want := scheduled(t, tr, parts, 10, 25, n)
	sameResult(t, res, want)
	for _, other := range []*RunResult{scheduled(t, tr, parts, 10, 10, n), scheduled(t, tr, parts, 25, 25, n)} {
		if reflect.DeepEqual(other, want) {
			t.Fatal("the attempts' decisions do not diverge; the test cannot tell histories apart")
		}
	}
}

// TestZombieAttemptCannotMixHistories: a first attempt presumed dead (the
// fleet's killed worker) keeps running and appending after a second
// attempt resumed from it. Its appends land in its own log, which the
// second attempt unlinked, so a third attempt resumes from the second
// attempt's history alone.
func TestZombieAttemptCannotMixHistories(t *testing.T) {
	tr := testTrace(t)
	parts := attemptPartitioners(t)
	n := len(tr.Snapshots)
	dir := t.TempDir()
	resume := crashConfig(dir)
	resume.Resume = true

	zombie := newRegridGate(10)
	type out struct {
		res *RunResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		cfg := crashConfig(dir)
		cfg.OnRegrid = zombie.onRegrid
		res, err := Run(tr, perAttempt{parts[0]}, cfg)
		done <- out{res, err}
	}()
	<-zombie.reached // regrids [0, 10) are durable in the zombie's log
	zombieLog := logNames(t, dir)

	interruptedAfter(t, tr, perAttempt{parts[1]}, resume, 24)
	close(zombie.release)
	z := <-done
	if z.err != nil {
		t.Fatal(z.err)
	}
	// The zombie's own history is intact: it made every decision itself.
	sameResult(t, z.res, scheduled(t, tr, parts, n))

	if logs := logNames(t, dir); len(logs) != 1 || len(zombieLog) != 1 || logs[0] == zombieLog[0] {
		t.Fatalf("logs %v after the zombie finished (its own was %v), want only the second attempt's", logs, zombieLog)
	}
	if next := resumesAt(t, tr, perAttempt{parts[2]}, dir); next != 25 {
		t.Fatalf("third attempt resumes at regrid %d, want 25 (the second attempt's last record)", next)
	}
	res, err := Run(tr, perAttempt{parts[2]}, resume)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, scheduled(t, tr, parts, 10, 25, n))
}
