package core

import (
	"fmt"

	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/samr"
)

// Checkpoint/restart for trace replays: at regrid boundaries Run appends
// one binary record (record.go) to the checkpoint log its attempt owns
// (internal/checkpoint: CRC-framed, visible once Save returns, synced by
// a save a second or more after the last sync and when the attempt ends;
// an interrupted Run returns only after that sync). A
// record carries the accumulators of the eventual RunResult, the
// SnapshotStats completed since the attempt's previous record, the
// outgoing assignment and opt-in strategy state, so its size follows one
// interval rather than the whole run so far. A resumed run folds the
// newest log back into one state, skips the completed intervals and
// continues from the recorded simulation time, producing a final
// RunResult bit-identical to an uninterrupted run: every float travels as
// its IEEE bits, and the previous hierarchy is re-taken from the trace
// itself rather than serialized.

// CheckpointableStrategy is implemented by strategies carrying in-memory
// state that a resumed run must restore (capacity caches, failure
// counters, the agent loop's event baseline). Stateless strategies need nothing: re-running them over the
// restored inputs reproduces their decisions.
type CheckpointableStrategy interface {
	// CheckpointState serializes the strategy's resume-relevant state.
	CheckpointState() ([]byte, error)
	// RestoreState re-installs state captured by CheckpointState.
	RestoreState([]byte) error
}

// Checkpoint is one record of a run's checkpoint log, and also the state a
// whole log folds into (ReadCheckpoint): then From is 0 and Stats holds
// every interval before Next.
type Checkpoint struct {
	// Identity of the run; a checkpoint recorded under a different trace,
	// strategy or machine shape is not resumed into this one.
	Trace     string
	Snapshots int
	Strategy  string
	NProcs    int

	// Stats are the SnapshotStats of intervals [From, Next). Within one
	// Run call From is 0 for the first record, a full base, and the
	// previous record's Next after that. Next is the first regrid interval
	// a resumed run executes; everything before it is complete.
	From, Next int
	Stats      []SnapshotStat

	// Loop state between intervals and the RunResult accumulators as of
	// Next, absolute rather than deltas.
	SimTime        float64
	PrevLabel      string
	ImbSum, EffSum float64
	Degraded       int
	ComputeTime    float64
	CommTime       float64
	PartitionTime  float64
	MigrationTime  float64
	MaxImbalance   float64
	Switches       int
	Recoveries     int
	Steps          int

	// PrevAssignment is the outgoing placement; the matching hierarchy is
	// re-taken from the trace at Next-1, not serialized.
	PrevAssignment *partition.Assignment

	// StrategyState is the opaque CheckpointableStrategy payload.
	StrategyState []byte
}

// sameRun reports whether two records were written for the same run.
func (c *Checkpoint) sameRun(o *Checkpoint) bool {
	return c.Trace == o.Trace && c.Snapshots == o.Snapshots && c.Strategy == o.Strategy && c.NProcs == o.NProcs
}

// result rebuilds the partial RunResult a folded checkpoint describes.
func (c *Checkpoint) result() *RunResult {
	return &RunResult{
		Strategy:        c.Strategy,
		ComputeTime:     c.ComputeTime,
		CommTime:        c.CommTime,
		PartitionTime:   c.PartitionTime,
		MigrationTime:   c.MigrationTime,
		MaxImbalance:    c.MaxImbalance,
		Switches:        c.Switches,
		Recoveries:      c.Recoveries,
		Steps:           c.Steps,
		DegradedRegrids: c.Degraded,
		Snapshots:       c.Stats,
	}
}

// ReadCheckpoint folds the newest checkpoint log in dir into the state a
// resumed run would continue from, without checking that it belongs to
// any particular run. It returns nil, with no error, when dir holds no
// usable record.
func ReadCheckpoint(dir string) (*Checkpoint, error) {
	recs, err := (&checkpoint.Store{Dir: dir}).Records()
	if err != nil {
		return nil, err
	}
	return foldCheckpoint(recs)
}

// foldCheckpoint replays a log's records in order. A record is taken when
// it decodes and continues the chain: the first has From 0, every later
// one belongs to the same run and has From equal to the running Next, and
// each carries exactly the stats of [From, Next), indexed in order. The
// fold stops at the first record that does not, as the log reader stops
// at the first damaged one. Only the last record's assignment and
// strategy state are decoded.
func foldCheckpoint(recs []checkpoint.Record) (*Checkpoint, error) {
	var ck *Checkpoint
	var tail []byte
	for _, r := range recs {
		rec, rest, err := decodeCheckpointHead(r.Payload)
		if err != nil || rec.Next != r.Seq || !rec.continues(ck) {
			break
		}
		if ck != nil {
			rec.Stats = append(ck.Stats, rec.Stats...)
		}
		ck, tail = rec, rest
	}
	if ck == nil {
		return nil, nil
	}
	if err := ck.decodeTail(tail); err != nil {
		return nil, fmt.Errorf("core: checkpoint at regrid %d: %w", ck.Next, err)
	}
	ck.From = 0
	return ck, nil
}

// continues reports whether c extends the fold so far (nil: nothing yet).
func (c *Checkpoint) continues(prev *Checkpoint) bool {
	from := 0
	if prev != nil {
		if !c.sameRun(prev) {
			return false
		}
		from = prev.Next
	}
	if c.From != from || c.Next-c.From != len(c.Stats) {
		return false
	}
	for i, s := range c.Stats {
		if s.Index != c.From+i {
			return false
		}
	}
	return true
}

// loadRunCheckpoint folds the store's newest log and checks it against
// this run's identity. It returns nil — with no error — when nothing
// usable exists or the log belongs to another run, in which case the run
// starts from the beginning. An outgoing assignment that is not a valid
// placement on this run's processors is an error: the run would build its
// communication plan from it.
func loadRunCheckpoint(store *checkpoint.Store, tr *samr.Trace, strat Strategy, nprocs int) (*Checkpoint, error) {
	recs, err := store.Records()
	if err != nil {
		return nil, err
	}
	ck, err := foldCheckpoint(recs)
	if err != nil || ck == nil {
		return nil, err
	}
	want := Checkpoint{Trace: tr.Name, Snapshots: len(tr.Snapshots), Strategy: strat.Name(), NProcs: nprocs}
	if !ck.sameRun(&want) || ck.Next < 1 || ck.Next > len(tr.Snapshots) {
		return nil, nil
	}
	if a := ck.PrevAssignment; a != nil {
		if a.NProcs != nprocs {
			return nil, fmt.Errorf("core: checkpoint at regrid %d: assignment over %d processors, run has %d", ck.Next, a.NProcs, nprocs)
		}
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint at regrid %d: %w", ck.Next, err)
		}
	}
	if len(ck.StrategyState) > 0 {
		cs, ok := strat.(CheckpointableStrategy)
		if !ok {
			return nil, fmt.Errorf(
				"core: checkpoint carries state for strategy %q but the strategy cannot restore it", ck.Strategy)
		}
		if err := cs.RestoreState(ck.StrategyState); err != nil {
			return nil, fmt.Errorf("core: restore strategy state: %w", err)
		}
	}
	metricResumes.Inc()
	return ck, nil
}
