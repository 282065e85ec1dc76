package fleet

import (
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/pragma-grid/pragma/internal/sched"
)

// Handler exposes the router over HTTP: the single-node scheduler's
// /sched/* surface (see sched.Handler) over the router's lifecycle, so
// clients need not care whether they are talking to one node or a fleet,
// with fleet-wide submit, stats and drain, plus
//
//	GET  /sched/fleet                           per-worker placement view
//
// Submit's spec parameters are those of ParseSubmit. checkpointRoot, when
// non-empty, confines every checkpoint directory a client can name to it
// and gives runs submitted without one <root>/<run-id>, so every fleet run
// is failover-capable by default.
func Handler(r *Router, checkpointRoot string) http.Handler {
	mux := sched.NewMux(r.life, sched.Front{
		Submit: func(tenant string, priority int, v url.Values) (RunStatus, error) {
			ws, err := ParseSubmit(tenant, v, checkpointRoot)
			if err != nil {
				return RunStatus{}, err
			}
			return r.Submit(SubmitRequest{Tenant: tenant, Priority: priority, Spec: ws, CheckpointRoot: checkpointRoot})
		},
		Stats: func() any { return r.Stats() },
		Drain: r.Drain,
	})
	mux.HandleFunc("/sched/fleet", func(w http.ResponseWriter, req *http.Request) {
		sched.WriteJSON(w, http.StatusOK, struct {
			Workers []WorkerInfo `json:"workers"`
			Stats   Stats        `json:"stats"`
		}{r.Workers(), r.Stats()})
	})
	return mux
}

// SpecFromValues parses WireSpec fields out of URL query parameters — the
// /sched/submit wire format:
//
//	trace=small|paper        adaptation trace (generated once, then cached)
//	scenario=SPEC            composed scenario spec instead of trace=
//	                         (internal/scenario grammar, cached per spec)
//	seed=N                   scenario seed override (with scenario=)
//	strategy=adaptive|...    strategy or partitioner name (default adaptive)
//	procs=N                  processor count (default 8)
//	weight=W                 the tenant's fair-share weight
//	checkpoint=DIR           checkpoint directory (see ParseSubmit)
//	checkpoint-every=K       checkpoint after every K-th regrid
//	resume=1                 continue from the latest checkpoint
//	regrid-delay-ms=MS       failure-rehearsal pause per regrid
func SpecFromValues(v url.Values) (WireSpec, error) {
	ws := WireSpec{
		Trace:         v.Get("trace"),
		Scenario:      v.Get("scenario"),
		Strategy:      v.Get("strategy"),
		CheckpointDir: v.Get("checkpoint"),
	}
	if ws.Trace != "" && ws.Scenario != "" {
		return WireSpec{}, fmt.Errorf("fleet: trace and scenario are mutually exclusive")
	}
	for _, f := range [...]struct {
		name string
		dst  *int
	}{
		{"procs", &ws.Procs},
		{"checkpoint-every", &ws.CheckpointEvery},
		{"regrid-delay-ms", &ws.RegridDelayMS},
	} {
		if s := v.Get(f.name); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				return WireSpec{}, fmt.Errorf("fleet: bad %s: %w", f.name, err)
			}
			*f.dst = n
		}
	}
	if s := v.Get("seed"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return WireSpec{}, fmt.Errorf("fleet: bad seed: %w", err)
		}
		ws.Seed, ws.SeedSet = n, true
	}
	if s := v.Get("resume"); s != "" {
		b, err := strconv.ParseBool(s)
		if err != nil {
			return WireSpec{}, fmt.Errorf("fleet: bad resume: %w", err)
		}
		ws.Resume = b
	}
	if s := v.Get("weight"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f <= 0 {
			return WireSpec{}, fmt.Errorf("fleet: bad weight: must be a positive number")
		}
		ws.Weight = f
	}
	return ws, nil
}

// ParseSubmit is the one path from a /sched/submit request to a WireSpec:
// SpecFromValues, then the checkpoint-root rule. checkpoint= and name= are
// outside input that ends up as a directory the router and every worker
// write to, so with a root configured a client can only name places under
// it: checkpoint=DIR must be relative and stay inside the root once
// cleaned, and means <root>/DIR; name=NAME means <root>/<tenant>/<NAME>
// ("_default" for the empty tenant), both being single safe path
// components. Without a root, checkpoint= is taken as given and name= is
// only a label. Programmatic WireSpecs are not restricted.
func ParseSubmit(tenant string, v url.Values, root string) (WireSpec, error) {
	ws, err := SpecFromValues(v)
	if err != nil || root == "" {
		return ws, err
	}
	name := v.Get("name")
	switch {
	case ws.CheckpointDir != "":
		if !filepath.IsLocal(ws.CheckpointDir) {
			return WireSpec{}, fmt.Errorf("fleet: checkpoint %q must be a relative path inside the checkpoint root", ws.CheckpointDir)
		}
		ws.CheckpointDir = filepath.Join(root, ws.CheckpointDir)
	case name != "":
		if tenant == "" {
			tenant = "_default"
		}
		for _, c := range []string{tenant, name} {
			if safePathComponent(c) != c {
				return WireSpec{}, fmt.Errorf("fleet: %q not usable as a path component", c)
			}
		}
		ws.CheckpointDir = filepath.Join(root, tenant, name)
	}
	return ws, nil
}

// SpecBuilder is the single-node scheduler's submit path: ParseSubmit
// under root, then mat. It is also what a scheduler snapshot is restored
// through.
func SpecBuilder(root string, mat Materializer) sched.SpecBuilder {
	return func(tenant string, priority int, v url.Values) (sched.RunSpec, error) {
		ws, err := ParseSubmit(tenant, v, root)
		if err != nil {
			return sched.RunSpec{}, err
		}
		return mat(ws)
	}
}

// safePathComponent rewrites s into a single directory name that cannot
// escape its parent: anything but letters, digits, dash and underscore
// becomes an underscore. A name it leaves unchanged is safe as it stands.
func safePathComponent(s string) string {
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
	if s == "" {
		s = "run"
	}
	return s
}
