package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/pragma-grid/pragma/internal/checkpoint"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

const replayProcs = 64

// interruptAt are the regrids at which the checkpoint workload's probe
// closes RunConfig.Interrupt; each is followed by a Resume.
var interruptAt = []int{50, 100, 150}

// replay is the two rm3d64_* workloads: the paper-scale RM3D trace
// replayed by core.Run on 64 simulated SP2 processors under the adaptive
// strategy, one run at a time — directly (rm3d64_adaptive), or with a
// checkpoint after every regrid and three interrupt/resume cycles per run
// (rm3d64_ckpt_resume).
type replay struct {
	name    string
	ckpt    bool
	cfg     rm3d.Config
	tr      *samr.Trace
	ref     *core.RunResult
	genS    float64
	ckptDir string
	seq     int
}

func setupReplay(name string, seed int64, ckpt bool) (bench, error) {
	b := &replay{name: name, ckpt: ckpt, cfg: rm3dConfig(seed)}
	start := time.Now()
	tr, err := rm3d.GenerateTrace(b.cfg)
	if err != nil {
		return nil, err
	}
	b.tr, b.genS = tr, time.Since(start).Seconds()
	// The reference every measured result must equal: one uninterrupted,
	// checkpoint-free run of the strategy the probe decorates.
	b.ref, err = core.Run(tr, core.Adaptive{ImbalanceGuard: 20}, b.config())
	if err != nil {
		return nil, err
	}
	if ckpt {
		b.ckptDir = filepath.Join(outDir, fmt.Sprintf("ckpt-%s-%d", name, os.Getpid()))
		if err := os.RemoveAll(b.ckptDir); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (b *replay) config() core.RunConfig {
	return core.RunConfig{Machine: cluster.SP2(replayProcs), NProcs: replayProcs, WorkModel: b.cfg.WorkModel}
}

func (b *replay) close() error {
	if b.ckptDir == "" {
		return nil
	}
	return os.RemoveAll(b.ckptDir)
}

// one executes one run and returns its result, the Assign entry times of
// all its segments in order, and when it ended.
func (b *replay) one(t *tracer, capture bool) (*core.RunResult, []time.Time, time.Duration, error) {
	b.seq++
	run := fmt.Sprintf("%s-%04d", b.name, b.seq)
	cfg := b.config()
	start := time.Now()
	var runSpan int
	if t != nil {
		runSpan = t.rec.reserve(run, spanRun, 0, start)
		if capture {
			t.capture[run] = true
		}
		wm := cfg.WorkModel
		cfg.WorkModel = func(idx int) samr.WorkModel {
			s := time.Now()
			m := wm(idx)
			t.rec.add(run, spanWorkModel, runSpan, s, time.Now())
			return m
		}
	}
	stops := []int{-1}
	if b.ckpt {
		// A fresh directory per run: a stale higher-numbered checkpoint of
		// an earlier run would win Latest and be pruned last.
		cfg.CheckpointDir = filepath.Join(b.ckptDir, run)
		cfg.CheckpointEvery = 1
		stops = append(append([]int(nil), interruptAt...), -1)
	}
	var entries []time.Time
	var res *core.RunResult
	for seg, stopAt := range stops {
		p := newProbe(t, run, runSpan)
		p.stopAt, p.stop = stopAt, make(chan struct{})
		cfg.Interrupt = p.stop
		cfg.Resume = seg > 0
		segStart := time.Now()
		r, err := core.Run(b.tr, p, cfg)
		end := time.Now()
		p.finishRun(end)
		if t != nil && seg > 0 && len(p.entries) > 0 {
			t.rec.add(run, spanResume, runSpan, segStart, p.entries[0])
		}
		entries = append(entries, p.entries...)
		if stopAt >= 0 {
			if !errors.Is(err, core.ErrInterrupted) {
				return nil, nil, 0, fmt.Errorf("%s: segment %d ended with %v, want an interrupt after regrid %d", run, seg, err, stopAt)
			}
			continue
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", run, err)
		}
		res = r
	}
	end := time.Now()
	if t != nil {
		t.rec.finish(runSpan, end)
	}
	entries = append(entries, end)
	if b.ckpt {
		if err := os.RemoveAll(cfg.CheckpointDir); err != nil {
			return nil, nil, 0, err
		}
	}
	return res, entries, end.Sub(start), nil
}

func (b *replay) drive(minRuns int, d time.Duration, t *tracer) (*phase, error) {
	ph := newPhase(1)
	for ph.runs < minRuns || time.Since(ph.start) < d {
		res, entries, took, err := b.one(t, t != nil && ph.runs == 0)
		if err != nil {
			return nil, err
		}
		ph.runs++
		if !reflect.DeepEqual(res, b.ref) {
			ph.failed++
			ph.note("%s run %d: result differs from the uninterrupted reference", b.name, b.seq)
		}
		ph.runMS = append(ph.runMS, ms(took))
		for i := 1; i < len(entries); i++ {
			ph.opMS = append(ph.opMS, ms(entries[i].Sub(entries[i-1])))
		}
		ph.simSum += res.TotalTime
		ph.cut()
	}
	ph.finish()
	return ph, nil
}

func (b *replay) warmPasses() int { return 1 }

// layers reports the per-layer metrics of the traced phase and where its
// runs' time went. The checkpoint workload adds the durable path: the
// program's own Store.Save histogram for the time (exact for these runs,
// which matters for fsync: the disk's latency drifts between a run and
// its replay), a replay for the median and for the encode.
func (b *replay) layers(t *tracer, traced *phase, out map[string]float64) error {
	out["rm3d.generate_s"] = b.genS
	l, err := t.partitionLayers(traced, out)
	if err != nil {
		return err
	}
	out["core.regrid_p99_ms"] = tail(traced.opMS, 0.99)
	l.shares["rm3d (work model)"] = sum(l.dur[spanWorkModel])
	if b.ckpt {
		saveMS, encodeMS, bytes, latestMS, err := b.replaySaves(t)
		if err != nil {
			return err
		}
		c := traced.counts
		saves := c["pragma_checkpoint_writes_total"]
		out["checkpoint.save_ms_p50"] = median(saveMS)
		out["checkpoint.latest_ms"] = latestMS
		out["checkpoint.bytes_per_save"] = c["pragma_checkpoint_bytes_written_total"] / saves
		out["checkpoint.saves_per_run"] = saves / float64(traced.runs)
		out["core.ckpt_encode_ms_p50"] = median(encodeMS)
		out["core.resume_ms"] = mean(l.dur[spanResume])
		l.shares["checkpoint (save)"] = 1000 * c["pragma_checkpoint_write_seconds_sum"]
		l.shares["core (checkpoint encode)"] = saves * mean(encodeMS)
		l.shares["core (resume)"] = sum(l.dur[spanResume])
		fmt.Fprintf(os.Stderr, "checkpoint replay: %d saves of %.0f bytes, mean %.3f ms (the runs: %.0f saves each of %.0f bytes, mean %.3f ms)\n",
			len(saveMS), bytes, mean(saveMS), out["checkpoint.saves_per_run"], out["checkpoint.bytes_per_save"], l.shares["checkpoint (save)"]/saves)
	}
	runsMS := sum(l.dur[spanRun])
	unattributed := runsMS
	for _, v := range l.shares {
		unattributed -= v
	}
	l.shares["core (self, unattributed)"] = unattributed
	out["core.self_ms_per_regrid"] = unattributed / l.regrids
	out["core.unattributed_pct"] = 100 * unattributed / runsMS
	layerShares(fmt.Sprintf("%d traced runs", traced.runs), runsMS, l.shares)
	return nil
}

// ckptShape has the JSON shape of the loop state core.Run checkpoints
// (core/resume.go): the result so far and the outgoing assignment are
// what its size and its encoding time are made of.
type ckptShape struct {
	Trace          string          `json:"trace"`
	Snapshots      int             `json:"snapshots"`
	Strategy       string          `json:"strategy"`
	NProcs         int             `json:"nprocs"`
	NextIndex      int             `json:"nextIndex"`
	SimTime        float64         `json:"simTime"`
	PrevLabel      string          `json:"prevLabel"`
	ImbSum         float64         `json:"imbSum"`
	EffSum         float64         `json:"effSum"`
	Degraded       int             `json:"degraded"`
	Result         *core.RunResult `json:"result"`
	PrevAssignment struct {
		NProcs    int              `json:"nprocs"`
		Units     []partition.Unit `json:"units"`
		Owner     []int            `json:"owner"`
		SplitCost float64          `json:"splitCost"`
	} `json:"prevAssignment"`
}

// replaySaves does again, on the captured run's inputs, what core.Run
// does after each regrid of the checkpoint workload: encode the loop
// state (timed on a value of the same shape) and Store.Save it into a
// scratch store with core.Run's retention, twice where the run was
// interrupted; then one Store.Latest. It returns the save and encode
// times in milliseconds, the mean payload size, and the Latest time.
func (b *replay) replaySaves(t *tracer) (saveMS, encodeMS []float64, bytes, latestMS float64, err error) {
	store := &checkpoint.Store{Dir: filepath.Join(b.ckptDir, "replay")}
	defer os.RemoveAll(store.Dir)
	root := t.rec.reserve("replay", "replay", 0, time.Now())
	twice := make(map[int]bool)
	for _, i := range interruptAt {
		twice[i] = true
	}
	t.mu.Lock()
	inputs := t.inputs
	t.mu.Unlock()
	for _, in := range inputs {
		if in.index+1 >= len(b.tr.Snapshots) {
			break // core.Run does not checkpoint after the last interval
		}
		partial := *b.ref
		partial.Snapshots = b.ref.Snapshots[:in.index+1]
		state := ckptShape{
			Trace: b.tr.Name, Snapshots: len(b.tr.Snapshots), Strategy: "adaptive", NProcs: in.nprocs,
			NextIndex: in.index + 1, SimTime: partial.TotalTime, PrevLabel: in.label, Result: &partial,
		}
		state.PrevAssignment.NProcs = in.a.NProcs
		state.PrevAssignment.Units = in.a.Units
		state.PrevAssignment.Owner = in.a.Owner
		state.PrevAssignment.SplitCost = in.a.SplitCost
		start := time.Now()
		payload, err := json.Marshal(state)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		encoded := time.Now()
		t.rec.add("replay:checkpoint", "checkpoint.encode", root, start, encoded)
		encodeMS = append(encodeMS, ms(encoded.Sub(start)))
		for n := 0; n < 1 || (n < 2 && twice[in.index]); n++ {
			start := time.Now()
			if _, err := store.Save(in.index+1, payload); err != nil {
				return nil, nil, 0, 0, err
			}
			end := time.Now()
			t.rec.add("replay:checkpoint", spanCheckpoint, root, start, end)
			saveMS = append(saveMS, ms(end.Sub(start)))
			bytes += float64(len(payload))
		}
	}
	start := time.Now()
	if _, _, err := store.Latest(nil); err != nil {
		return nil, nil, 0, 0, err
	}
	end := time.Now()
	t.rec.add("replay:checkpoint", "checkpoint.latest", root, start, end)
	t.rec.finish(root, end)
	return saveMS, encodeMS, bytes / float64(len(saveMS)), ms(end.Sub(start)), nil
}
