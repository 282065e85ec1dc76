package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/loadgen"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/sched"
)

// startLocalTarget brings up an in-process /sched serving surface backed
// by a real scheduler replaying a tiny RM3D trace, so -load works with no
// external server. Returns the base URL and a shutdown func.
func startLocalTarget() (string, func(), error) {
	cfg := rm3d.SmallConfig()
	cfg.BaseDims = [3]int{16, 8, 8}
	cfg.MaxDepth = 2
	cfg.CoarseSteps = 60
	tr, err := rm3d.GenerateTrace(cfg)
	if err != nil {
		return "", nil, err
	}
	p, err := partition.ByName("G-MISP+SP")
	if err != nil {
		return "", nil, err
	}
	s := sched.New(sched.Config{Workers: runtime.NumCPU(), QueueLimit: 1024})
	build := func(tenant string, priority int, v url.Values) (sched.RunSpec, error) {
		return sched.RunSpec{
			Trace:    tr,
			Strategy: core.Static{P: p},
			Machine:  cluster.SP2(4),
			NProcs:   4,
		}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: sched.Handler(s, build)}
	go srv.Serve(ln)
	stop := func() {
		srv.Close()
		s.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// printLoad runs the open-loop load harness against target (or an
// in-process scheduler when target is empty) and prints the client-side
// report. A positive slo fails the run when any endpoint's p99 exceeds it.
func (p *printer) printLoad(target string, qps float64, warmup, duration time.Duration, workers int, slo time.Duration) error {
	local := ""
	if target == "" {
		var stop func()
		var err error
		target, stop, err = startLocalTarget()
		if err != nil {
			return err
		}
		defer stop()
		local = " (in-process scheduler)"
	}
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: target,
		Stages:  loadgen.Ramp(qps, warmup, duration),
		Workers: workers,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(p.out, "target %s%s\n", target, local)
	for i, st := range rep.Stages {
		label := "measure"
		if len(rep.Stages) == 2 && i == 0 {
			label = "warmup"
		}
		fmt.Fprintf(p.out, "stage %d: %.0f qps x %s (%s)\n", i+1, st.QPS, st.Duration, label)
	}
	fmt.Fprintf(p.out, "wall %.2fs   intended %d   issued %d   dropped %d\n",
		rep.WallSeconds, rep.Intended, rep.Issued, rep.Dropped)
	fmt.Fprintf(p.out, "%-8s %-9s %-7s %-6s %-9s %-9s %-9s %s\n",
		"endpoint", "requests", "errors", "429s", "p50(ms)", "p95(ms)", "p99(ms)", "rps")
	for _, ep := range rep.Endpoints {
		fmt.Fprintf(p.out, "%-8s %-9d %-7d %-6d %-9.2f %-9.2f %-9.2f %.1f\n",
			ep.Endpoint, ep.Requests, ep.Errors, ep.Backpressure429,
			ep.P50Ms, ep.P95Ms, ep.P99Ms, ep.ThroughputRPS)
		p.metric(ep.Endpoint+"_requests", float64(ep.Requests))
		p.metric(ep.Endpoint+"_errors", float64(ep.Errors))
		p.metric(ep.Endpoint+"_429s", float64(ep.Backpressure429))
		p.metric(ep.Endpoint+"_p50_ms", ep.P50Ms)
		p.metric(ep.Endpoint+"_p95_ms", ep.P95Ms)
		p.metric(ep.Endpoint+"_p99_ms", ep.P99Ms)
		p.metric(ep.Endpoint+"_rps", ep.ThroughputRPS)
	}
	p.metric("intended", float64(rep.Intended))
	p.metric("issued", float64(rep.Issued))
	p.metric("dropped", float64(rep.Dropped))
	p.metric("wall_s", rep.WallSeconds)
	if slo > 0 {
		if err := rep.CheckSLO(slo); err != nil {
			return err
		}
		fmt.Fprintf(p.out, "SLO: worst p99 %v within %v\n", rep.P99().Round(time.Microsecond), slo)
	}
	return nil
}
