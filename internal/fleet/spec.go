package fleet

import (
	"fmt"
	"sync"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
	"github.com/pragma-grid/pragma/internal/sched"
)

// WireSpec is a run description that can cross the control network: names
// and numbers only, no pointers. Router and workers materialize it into an
// executable sched.RunSpec independently with the same Materializer, so a
// run dispatched remotely, failed over to a survivor, or degraded to local
// execution computes the identical result. CheckpointDir must be on
// storage every fleet member can reach — it is what failover resumes from.
type WireSpec struct {
	// Trace names a built-in adaptation trace ("small" or "paper");
	// Scenario, when set instead, is an internal/scenario spec string.
	Trace    string `json:"trace,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	// Seed overrides the scenario spec's seed when SeedSet is true.
	Seed    int64 `json:"seed,omitempty"`
	SeedSet bool  `json:"seedSet,omitempty"`
	// Strategy is adaptive|system-sensitive|proactive or a partitioner
	// name ("" = adaptive); Procs the processor count ("0" = 8).
	Strategy string `json:"strategy,omitempty"`
	Procs    int    `json:"procs,omitempty"`
	// Checkpoint configuration; Resume continues from the latest valid
	// checkpoint in CheckpointDir (the failover path sets it).
	CheckpointDir   string `json:"checkpointDir,omitempty"`
	CheckpointEvery int    `json:"checkpointEvery,omitempty"`
	Resume          bool   `json:"resume,omitempty"`
	// RegridDelayMS pauses every regrid by this many milliseconds. It is a
	// failure-rehearsal knob: the fleet smoke test uses it to keep runs in
	// flight long enough to SIGKILL a worker mid-run.
	RegridDelayMS int `json:"regridDelayMs,omitempty"`
	// Weight is the tenant's fair-share weight (0 = keep current /
	// default). It travels with the dispatch so a run routed to a worker —
	// or failed over to a survivor — keeps its proportional share in the
	// worker's local scheduler.
	Weight float64 `json:"weight,omitempty"`
}

// Bounds on the outside input a WireSpec carries. The machine is allocated
// per processor, and a regrid delay sleeps through interrupts, so a drain
// waits it out.
const (
	maxProcs         = 1024
	maxRegridDelayMS = 1000
	// maxCachedTraces bounds the materializer's trace cache, which is keyed
	// by client-chosen scenario strings and seeds; the oldest entry goes
	// first.
	maxCachedTraces = 256
)

// Materializer turns a WireSpec into an executable run spec. Every entry
// point shares one — the single-node scheduler, fleet workers, the
// router's local execution, pragma-node replay, snapshot restore — so
// every placement of a run computes the same result.
type Materializer func(ws WireSpec) (sched.RunSpec, error)

// DefaultMaterializer builds the standard materializer: built-in RM3D
// traces and scenario specs, cached per process (the latest
// maxCachedTraces of them) so repeated dispatches of the same trace do not
// regenerate it, with a fresh strategy instance per run (strategies carry
// per-run state). A trace's per-snapshot work models (the scenario's, or
// the RM3D configuration's for a built-in trace) are built once with it
// and cached in the same entry; the runs share them read-only.
func DefaultMaterializer() Materializer {
	var mu sync.Mutex
	type cached struct {
		tr        *samr.Trace
		workModel func(idx int) samr.WorkModel
	}
	cache := map[string]cached{}
	var order []string // cache keys, oldest first
	get := func(key string, gen func() (*samr.Trace, error), wm func(idx int) samr.WorkModel) (cached, error) {
		mu.Lock()
		defer mu.Unlock()
		if c, ok := cache[key]; ok {
			return c, nil
		}
		tr, err := gen()
		if err != nil {
			return cached{}, err
		}
		wms := make([]samr.WorkModel, len(tr.Snapshots))
		for i := range wms {
			wms[i] = wm(i)
		}
		c := cached{tr: tr, workModel: func(idx int) samr.WorkModel { return wms[idx] }}
		if len(order) == maxCachedTraces {
			delete(cache, order[0])
			order = order[1:]
		}
		cache[key] = c
		order = append(order, key)
		return c, nil
	}
	return func(ws WireSpec) (sched.RunSpec, error) {
		procs := ws.Procs
		if procs == 0 {
			procs = 8
		}
		if procs < 1 || procs > maxProcs {
			return sched.RunSpec{}, fmt.Errorf("fleet: procs %d outside [1, %d]", procs, maxProcs)
		}
		if ws.RegridDelayMS < 0 || ws.RegridDelayMS > maxRegridDelayMS {
			return sched.RunSpec{}, fmt.Errorf("fleet: regrid delay %d ms outside [0, %d]", ws.RegridDelayMS, maxRegridDelayMS)
		}
		var c cached
		var err error
		if ws.Scenario != "" {
			spec, perr := scenario.ParseSpec(ws.Scenario)
			if perr != nil {
				return sched.RunSpec{}, perr
			}
			if ws.SeedSet {
				spec.Seed = ws.Seed
			}
			key := fmt.Sprintf("scenario\x00%s\x00%d", ws.Scenario, spec.Seed)
			c, err = get(key, spec.Generate, spec.WorkModel)
		} else {
			var cfg rm3d.Config
			switch ws.Trace {
			case "", "small":
				cfg = rm3d.SmallConfig()
			case "paper":
				cfg = rm3d.DefaultConfig()
			default:
				return sched.RunSpec{}, fmt.Errorf("fleet: unknown trace %q (small|paper)", ws.Trace)
			}
			name := ws.Trace
			if name == "" {
				name = "small"
			}
			c, err = get(name, func() (*samr.Trace, error) { return rm3d.GenerateTrace(cfg) }, cfg.WorkModel)
		}
		if err != nil {
			return sched.RunSpec{}, err
		}
		strat, err := strategyByName(ws.Strategy)
		if err != nil {
			return sched.RunSpec{}, err
		}
		if ws.RegridDelayMS > 0 {
			strat = DelayStrategy(strat, time.Duration(ws.RegridDelayMS)*time.Millisecond)
		}
		return sched.RunSpec{
			Trace:           c.tr,
			Strategy:        strat,
			Machine:         cluster.SP2(procs),
			NProcs:          procs,
			WorkModel:       c.workModel,
			CheckpointDir:   ws.CheckpointDir,
			CheckpointEvery: ws.CheckpointEvery,
			Resume:          ws.Resume,
			Weight:          ws.Weight,
		}, nil
	}
}

// strategyByName resolves a strategy or partitioner name, returning a
// fresh instance per call.
func strategyByName(name string) (core.Strategy, error) {
	switch name {
	case "", "adaptive":
		return core.Adaptive{ImbalanceGuard: 20}, nil
	case "system-sensitive":
		return &core.SystemSensitive{}, nil
	case "proactive":
		return &core.SystemSensitive{RecalibrateEvery: 1, Forecast: true}, nil
	default:
		p, err := partition.ByName(name)
		if err != nil {
			return nil, err
		}
		return core.Static{P: p}, nil
	}
}

// hookStrategy calls before ahead of every Assign of inner — an error from
// it fails the regrid — passing checkpoint state through to inner so
// resume semantics are unchanged.
type hookStrategy struct {
	inner  core.Strategy
	before func() error
}

// BeforeAssign returns strat with before called ahead of every regrid: the
// rehearsal hook behind injected delays and crashes.
func BeforeAssign(strat core.Strategy, before func() error) core.Strategy {
	return hookStrategy{inner: strat, before: before}
}

// DelayStrategy returns strat slowed by d per regrid — what
// WireSpec.RegridDelayMS asks for.
func DelayStrategy(strat core.Strategy, d time.Duration) core.Strategy {
	return BeforeAssign(strat, func() error { time.Sleep(d); return nil })
}

func (s hookStrategy) Name() string { return s.inner.Name() }

func (s hookStrategy) Assign(ctx *core.StepContext) (*partition.Assignment, string, error) {
	if err := s.before(); err != nil {
		return nil, "", err
	}
	return s.inner.Assign(ctx)
}

func (s hookStrategy) CheckpointState() ([]byte, error) {
	if cs, ok := s.inner.(core.CheckpointableStrategy); ok {
		return cs.CheckpointState()
	}
	return nil, nil
}

func (s hookStrategy) RestoreState(data []byte) error {
	if cs, ok := s.inner.(core.CheckpointableStrategy); ok {
		return cs.RestoreState(data)
	}
	return nil
}
