package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"

	"github.com/pragma-grid/pragma/internal/stream"
)

// SpecBuilder turns a submit request's wire parameters into a RunSpec.
// The scheduler stays ignorant of trace formats; the serving binary
// decides what "trace=small&strategy=adaptive" means (and can cache the
// generated traces across submissions).
type SpecBuilder func(tenant string, priority int, v url.Values) (RunSpec, error)

// Front is what differs between the owners of a /sched/* surface: how a
// submit's parameters become an admitted run, what /sched/stats reports,
// and what a drain stops. Handler fills it for a Scheduler by itself, the
// fleet router for the Scheduler it executes for.
type Front struct {
	// Submit admits one run; an error that is not an admission error
	// (ErrSaturated, ErrTenantLimit, ErrDraining) is answered 400.
	Submit func(tenant string, priority int, v url.Values) (RunStatus, error)
	Stats  func() any
	Drain  func(context.Context) error
}

var errNoBuilder = errors.New("no spec builder configured")

// Handler exposes the scheduler over HTTP, designed to be mounted on the
// telemetry server's mux:
//
//	POST /sched/submit?tenant=T&priority=N&...  admit a run (spec params go to build)
//	GET  /sched/status?id=run-000001            one run's status
//	GET  /sched/runs                            every retained run record
//	GET  /sched/stats                           aggregate scheduler state
//	POST /sched/drain                           graceful drain; returns when drained
//	GET  /sched/events                          run events (with Config.Events)
//
// Submit returns 202 on admission, 429 with Retry-After under backpressure
// (saturation or tenant limit), and 503 while draining.
func Handler(s *Scheduler, build SpecBuilder) http.Handler {
	return NewMux(s, Front{
		Submit: func(tenant string, priority int, v url.Values) (RunStatus, error) {
			if build == nil {
				return RunStatus{}, errNoBuilder
			}
			spec, err := build(tenant, priority, v)
			if err != nil {
				return RunStatus{}, err
			}
			// Keep the wire form: it is what Snapshot persists so a queued or
			// drained run survives a process roll (see Snapshot/Restore).
			if spec.Wire == nil {
				spec.Wire = v
			}
			return s.Submit(SubmitRequest{Tenant: tenant, Priority: priority, Weight: spec.Weight, Spec: spec})
		},
		Stats: func() any { return s.Stats() },
		Drain: s.Drain,
	})
}

// NewMux builds the /sched/* surface over s's run table and event hub,
// with f deciding admission, stats and drain. The caller may add routes.
func NewMux(s *Scheduler, f Front) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/sched/submit", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		v := req.URL.Query()
		priority := 0
		if p := v.Get("priority"); p != "" {
			n, err := strconv.Atoi(p)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad priority: "+err.Error())
				return
			}
			priority = n
		}
		st, err := f.Submit(v.Get("tenant"), priority, v)
		switch {
		case errors.Is(err, ErrSaturated), errors.Is(err, ErrTenantLimit):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, errNoBuilder):
			httpError(w, http.StatusNotImplemented, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			WriteJSON(w, http.StatusAccepted, st)
		}
	})
	mux.HandleFunc("/sched/status", func(w http.ResponseWriter, req *http.Request) {
		st, ok := s.Status(req.URL.Query().Get("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown run id")
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/sched/runs", func(w http.ResponseWriter, req *http.Request) {
		// Paginated: at most limit records (default DefaultRunsLimit,
		// capped at it too) starting after run ID ?after=. Clients page
		// by passing the last ID of each response as the next after.
		v := req.URL.Query()
		limit := DefaultRunsLimit
		if l := v.Get("limit"); l != "" {
			n, err := strconv.Atoi(l)
			if err != nil || n <= 0 {
				httpError(w, http.StatusBadRequest, "bad limit")
				return
			}
			if n < limit {
				limit = n
			}
		}
		WriteJSON(w, http.StatusOK, s.RunsPage(v.Get("after"), limit))
	})
	mux.HandleFunc("/sched/stats", func(w http.ResponseWriter, req *http.Request) {
		WriteJSON(w, http.StatusOK, f.Stats())
	})
	mux.HandleFunc("/sched/drain", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if err := f.Drain(req.Context()); err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, f.Stats())
	})
	if s.cfg.Events != nil {
		mux.Handle("/sched/events", stream.Handler(s.cfg.Events, stream.HandlerConfig{}))
	}
	// JSON 404 for unknown /sched/ paths: every error this surface emits
	// is application/json, including routing misses.
	mux.HandleFunc("/sched/", func(w http.ResponseWriter, req *http.Request) {
		httpError(w, http.StatusNotFound, "unknown sched endpoint")
	})
	return mux
}

// WriteJSON answers with v as an application/json document. It encodes
// before it writes the header: a value encoding/json refuses (a result
// from a programmatic Executor may carry a non-finite float) is answered
// 500 with the usual error document, not 200 with an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		body.Reset()
		code = http.StatusInternalServerError
		json.NewEncoder(&body).Encode(map[string]string{"error": err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body.Bytes())
}

func httpError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
