package fleet

import (
	"errors"
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

// cachedTrace is one materialized trace and its per-snapshot work models,
// built once with it; the runs share them read-only.
type cachedTrace struct {
	tr        *samr.Trace
	workModel func(idx int) samr.WorkModel
}

// traceEntry is one cache key's trace, ready once done is closed.
type traceEntry struct {
	done chan struct{}
	c    cachedTrace
	err  error
}

// traceCache holds the latest maxCachedTraces traces by key. A trace is
// generated outside the lock, once per key however many callers miss it
// at the same time, so a slow generation stalls only the callers that
// wait for that key. A failed generation is not kept.
type traceCache struct {
	mu      sync.Mutex
	entries map[string]*traceEntry // generated and in flight
	order   []string               // generated keys, oldest first
}

func newTraceCache() *traceCache {
	return &traceCache{entries: make(map[string]*traceEntry)}
}

// get returns key's trace, generating it with gen and wm on a miss.
func (tc *traceCache) get(key string, gen func() (*samr.Trace, error), wm func(idx int) samr.WorkModel) (cachedTrace, error) {
	tc.mu.Lock()
	if e, ok := tc.entries[key]; ok {
		tc.mu.Unlock()
		<-e.done
		return e.c, e.err
	}
	e := &traceEntry{done: make(chan struct{}), err: errGenerationPanicked}
	tc.entries[key] = e
	tc.mu.Unlock()
	defer func() {
		// Runs on a panic in gen too, so waiters see an error and the
		// key is not left in flight.
		tc.mu.Lock()
		if e.err != nil {
			delete(tc.entries, key)
		} else {
			if len(tc.order) == maxCachedTraces {
				delete(tc.entries, tc.order[0])
				tc.order = tc.order[1:]
			}
			tc.order = append(tc.order, key)
		}
		tc.mu.Unlock()
		close(e.done)
	}()
	tr, err := gen()
	if err != nil {
		e.err = err
		return cachedTrace{}, err
	}
	wms := make([]samr.WorkModel, len(tr.Snapshots))
	for i := range wms {
		wms[i] = wm(i)
	}
	e.c = cachedTrace{tr: tr, workModel: func(idx int) samr.WorkModel { return wms[idx] }}
	e.err = nil
	return e.c, nil
}

var errGenerationPanicked = errors.New("fleet: trace generation panicked")

// DefaultMaterializer builds the standard materializer: built-in RM3D
// traces and scenario specs, cached per process (the latest
// maxCachedTraces of them) so repeated dispatches of the same trace do not
// regenerate it, with a fresh strategy instance per run (strategies carry
// per-run state).
func DefaultMaterializer() Materializer {
	cache := newTraceCache()
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
		var c cachedTrace
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
			c, err = cache.get(key, spec.Generate, spec.WorkModel)
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
			c, err = cache.get(name, func() (*samr.Trace, error) { return rm3d.GenerateTrace(cfg) }, cfg.WorkModel)
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
