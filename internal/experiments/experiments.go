// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment has one entry point returning typed rows;
// cmd/pragma-bench prints them in the paper's format and the repository's
// top-level benchmarks time them. EXPERIMENTS.md records paper-reported
// versus regenerated values.
package experiments

import (
	"fmt"
	"sync"

	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

// traceCache memoizes generated adaptation traces per configuration seed so
// repeated experiments do not regenerate the 200+ snapshot trace.
var traceCache = struct {
	sync.Mutex
	m map[string]*samr.Trace
}{m: map[string]*samr.Trace{}}

// TraceFor returns the (cached) adaptation trace for a configuration.
func TraceFor(cfg rm3d.Config) (*samr.Trace, error) {
	key := fmt.Sprintf("%+v", cfg)
	traceCache.Lock()
	defer traceCache.Unlock()
	if tr, ok := traceCache.m[key]; ok {
		return tr, nil
	}
	tr, err := rm3d.GenerateTrace(cfg)
	if err != nil {
		return nil, err
	}
	traceCache.m[key] = tr
	return tr, nil
}

// PaperTrace returns the paper-scale RM3D trace (128x32x32 base, 3 levels,
// regrid every 4 steps, 202 snapshots).
func PaperTrace() (*samr.Trace, error) { return TraceFor(rm3d.DefaultConfig()) }
