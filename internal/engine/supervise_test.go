package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/agents"
)

// runGuarded runs e.Run with a watchdog: the pre-fix engine deadlocked on
// worker failure, and a regression must fail the test, not hang the suite.
func runGuarded(t *testing.T, e *Engine, steps int, guard time.Duration) (Report, error) {
	t.Helper()
	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := e.Run(steps)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(guard):
		t.Fatalf("engine.Run still blocked after %v (deadlock regression)", guard)
		return Report{}, nil
	}
}

// TestEngineWorkerErrorDoesNotDeadlock is the regression test for the
// seed's supervision hole: a worker returning an error left the
// coordinator blocked on barriers and wg.Wait never returned. No step
// deadline is configured — abortion alone must unblock everything.
func TestEngineWorkerErrorDoesNotDeadlock(t *testing.T) {
	h, a := testSetup(t, 4)
	center := agents.NewCenter()
	e, err := New(h, a, center, samePorts(center, 4),
		withWorkerFault(1, 1, FaultError))
	if err != nil {
		t.Fatal(err)
	}
	_, err = runGuarded(t, e, 5, 30*time.Second)
	if err == nil {
		t.Fatal("failed worker produced no error")
	}
	if !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("error does not describe the failure: %v", err)
	}
}

func TestEngineStalledWorkerHitsDeadline(t *testing.T) {
	h, a := testSetup(t, 4)
	center := agents.NewCenter()
	const deadline = 200 * time.Millisecond
	e, err := New(h, a, center, samePorts(center, 4),
		WithStepDeadline(deadline),
		withWorkerFault(2, 1, FaultStall))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = runGuarded(t, e, 6, 30*time.Second)
	elapsed := time.Since(start)
	var lw *LostWorkersError
	if !errors.As(err, &lw) {
		t.Fatalf("stalled worker: err = %v, want LostWorkersError", err)
	}
	if len(lw.Missing) != 1 || lw.Missing[0] != 2 {
		t.Fatalf("missing = %v, want [2]", lw.Missing)
	}
	if lw.Step != 1 {
		t.Fatalf("loss detected at step %d, want 1", lw.Step)
	}
	// Termination must be deadline-bounded, not eventual: allow generous
	// scheduling slack but nothing near a hang.
	if elapsed > 10*deadline+2*time.Second {
		t.Fatalf("stalled run took %v to fail (deadline %v)", elapsed, deadline)
	}
}

func TestEngineCrashedWorkerDetected(t *testing.T) {
	h, a := testSetup(t, 4)
	center := agents.NewCenter()
	e, err := New(h, a, center, samePorts(center, 4),
		WithStepDeadline(250*time.Millisecond),
		withWorkerFault(0, 2, FaultCrash))
	if err != nil {
		t.Fatal(err)
	}
	_, err = runGuarded(t, e, 6, 30*time.Second)
	var lw *LostWorkersError
	if !errors.As(err, &lw) {
		t.Fatalf("crashed worker: err = %v, want LostWorkersError", err)
	}
	if len(lw.Missing) != 1 || lw.Missing[0] != 0 {
		t.Fatalf("missing = %v, want [0]", lw.Missing)
	}
}

// TestEngineGhostDedupAndStaleRejection forges replayed and corrupted
// ghost traffic into a worker's mailbox before the run: exact duplicates
// of step-0 payloads, a stale step, and a far-future step. The run must
// drop all of it — identical checksums and counts to a clean run, with the
// drops accounted.
func TestEngineGhostDedupAndStaleRejection(t *testing.T) {
	h, a := testSetup(t, 4)

	clean := func() Report {
		center := agents.NewCenter()
		e, err := New(h, a, center, samePorts(center, 4))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()

	center := agents.NewCenter()
	e, err := New(h, a, center, samePorts(center, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Replay attack: worker 0's incoming pairs are exactly its outgoing
	// pair ids (ghost exchange is symmetric), and senders put
	// Checksum=uint64(pair) on the wire, so a byte-faithful replay of every
	// step-0 message is forgeable without running anything.
	target := portName(0)
	injected := 0
	for _, snd := range e.workers[0].sends {
		for copies := 0; copies < 2; copies++ { // two replays of each
			if err := center.Send(agents.Message{
				From: "replayer", To: target, Kind: "ghost",
				Payload: agents.Encode(ghostPayload{
					Step: 0, Pair: snd.pair, Faces: snd.faces, Checksum: uint64(snd.pair),
				}),
			}); err != nil {
				t.Fatal(err)
			}
			injected++
		}
	}
	// Stale (negative step) and far-future traffic: bounded-memory check.
	for _, g := range []ghostPayload{
		{Step: -1, Pair: 0, Checksum: 99},
		{Step: 100, Pair: 0, Checksum: 99},
	} {
		if err := center.Send(agents.Message{
			From: "replayer", To: target, Kind: "ghost", Payload: agents.Encode(g),
		}); err != nil {
			t.Fatal(err)
		}
		injected++
	}

	rep, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Workers {
		if rep.Workers[i].Checksum != clean.Workers[i].Checksum {
			t.Errorf("worker %d checksum diverged under replay: %x vs clean %x",
				i, rep.Workers[i].Checksum, clean.Workers[i].Checksum)
		}
		if rep.Workers[i].MessagesRecv != clean.Workers[i].MessagesRecv {
			t.Errorf("worker %d consumed %d ghosts, clean run %d",
				i, rep.Workers[i].MessagesRecv, clean.Workers[i].MessagesRecv)
		}
	}
	var dropped int
	for _, w := range rep.Workers {
		dropped += w.GhostsDropped
	}
	// The first replayed copy of each (step 0, pair) wins the dedup slot
	// and the worker's own legitimate delivery is dropped as the duplicate;
	// either way exactly `injected` extra messages must be discarded.
	if dropped != injected {
		t.Errorf("dropped %d ghosts, want %d", dropped, injected)
	}
}

func TestLostWorkersErrorNamesStepAndWorkers(t *testing.T) {
	err := &LostWorkersError{Step: 4, Missing: []int{1, 3}, Deadline: 250 * time.Millisecond}
	if got, want := err.Error(), "engine: step 4: workers [1 3] missed the 250ms step deadline"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestMissingPeersIsSortedAndDeduplicated(t *testing.T) {
	w := &worker{sends: []send{
		{pair: 0, peer: 5}, {pair: 1, peer: 2}, {pair: 2, peer: 5}, {pair: 3, peer: 7},
	}}
	got := w.missingPeers(0, map[int]bool{3: true})
	if want := []int{2, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("missingPeers = %v, want %v", got, want)
	}
	if got := w.missingPeers(0, map[int]bool{0: true, 1: true, 2: true, 3: true}); len(got) != 0 {
		t.Fatalf("every ghost arrived, yet missingPeers = %v", got)
	}
}
