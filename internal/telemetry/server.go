package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// NewHandler builds the telemetry HTTP mux:
//
//	/metrics       Prometheus text exposition of reg
//	/metrics.json  JSON snapshot of reg
//	/healthz       200 "ok" while the process serves at all
//	/readyz        200 "ok" while ready() returns nil, else 503 with its error
//	/debug/pragma  JSONL dump of tracer's recorded traces
//
// ready may be nil (always ready); tracer may be nil (empty dump).
// The returned mux is open for extension: callers mount additional routes
// on it (pragma-node sched adds the scheduler's /sched/ endpoints) and
// serve the combined handler with ServeHandler.
//
// Liveness and readiness are deliberately separate endpoints: a draining
// scheduler is still alive (the process must not be restarted while it
// checkpoints in-flight runs) but no longer ready (load balancers must stop
// routing new submissions to it). /healthz answers the first question,
// /readyz the second.
func NewHandler(reg *Registry, tracer *Tracer, ready func() error) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		// Encode before the header goes out: a gauge can hold NaN or ±Inf,
		// which encoding/json refuses, and that must not be a 200 with an
		// empty body.
		code := http.StatusOK
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(reg.Snapshot()); err != nil {
			body.Reset()
			code = http.StatusInternalServerError
			json.NewEncoder(&body).Encode(map[string]string{"error": err.Error()})
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(body.Bytes())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		if ready != nil {
			if err := ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pragma", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		tracer.WriteJSONL(w)
	})
	return mux
}

// Server is a running telemetry endpoint.
type Server struct {
	ln   net.Listener
	http *http.Server
}

// Serve starts the telemetry endpoint on addr (e.g. ":9090" or
// "127.0.0.1:0"), always ready, and returns once it is listening. Close
// shuts it down. A readiness check needs NewHandler and ServeHandler.
func Serve(addr string, reg *Registry, tracer *Tracer) (*Server, error) {
	return ServeHandler(addr, NewHandler(reg, tracer, nil))
}

// ServeHandler starts an HTTP server for an arbitrary handler — typically
// a NewHandler mux extended with extra routes — and returns once it is
// listening.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	srv := &Server{
		ln: ln,
		http: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go srv.http.Serve(ln)
	return srv, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, letting in-flight responses — e.g. the drain
// endpoint's final stats, whose completion is what unblocks a serving
// binary's exit — finish within a short grace period before connections
// are torn down.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		return s.http.Close()
	}
	return nil
}
