package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stubSched mimics the /sched serving surface: submit admits with an ID,
// status answers for known IDs.
func stubSched(t *testing.T) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	var submits, statuses atomic.Int64
	var seq atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/sched/submit", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		submits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"run-%06d","state":"queued"}`, seq.Add(1))
	})
	mux.HandleFunc("/sched/status", func(w http.ResponseWriter, req *http.Request) {
		statuses.Add(1)
		id := req.URL.Query().Get("id")
		if !strings.HasPrefix(id, "run-") {
			http.Error(w, `{"error":"unknown run id"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"state":"done"}`, id)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &submits, &statuses
}

func TestRunReportsBothEndpoints(t *testing.T) {
	srv, submits, statuses := stubSched(t)
	rep, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Stages:  []Stage{{QPS: 400, Duration: 500 * time.Millisecond}},
		Workers: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "pragma-loadgen/v1" {
		t.Errorf("schema %q", rep.Schema)
	}
	if rep.Issued == 0 || rep.Intended < rep.Issued {
		t.Errorf("intended %d issued %d", rep.Intended, rep.Issued)
	}
	if rep.Issued+rep.Dropped != rep.Intended {
		t.Errorf("issued %d + dropped %d != intended %d", rep.Issued, rep.Dropped, rep.Intended)
	}
	if submits.Load() == 0 || statuses.Load() == 0 {
		t.Fatalf("server saw %d submits, %d statuses; want both exercised", submits.Load(), statuses.Load())
	}
	if len(rep.Endpoints) != 2 {
		t.Fatalf("endpoints %+v", rep.Endpoints)
	}
	for _, ep := range rep.Endpoints {
		if ep.Requests == 0 {
			t.Errorf("%s: no requests recorded", ep.Endpoint)
			continue
		}
		if ep.Errors != 0 {
			t.Errorf("%s: %d errors against a healthy stub", ep.Endpoint, ep.Errors)
		}
		if ep.P50Ms <= 0 || ep.P99Ms < ep.P95Ms || ep.P95Ms < ep.P50Ms {
			t.Errorf("%s: non-monotone percentiles p50=%v p95=%v p99=%v",
				ep.Endpoint, ep.P50Ms, ep.P95Ms, ep.P99Ms)
		}
		if ep.ThroughputRPS <= 0 {
			t.Errorf("%s: throughput %v", ep.Endpoint, ep.ThroughputRPS)
		}
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(buf, &round); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
}

func TestRunHonorsRetryAfter(t *testing.T) {
	// First submit attempt per request 429s with Retry-After: 1; the
	// retry succeeds. The engine must wait and retry, ending with zero
	// errors but a positive backpressure count.
	var rejected atomic.Bool
	var seq atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/sched/submit", func(w http.ResponseWriter, req *http.Request) {
		if rejected.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"sched: saturated"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"run-%06d"}`, seq.Add(1))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	start := time.Now()
	rep, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		Stages:      []Stage{{QPS: 50, Duration: 200 * time.Millisecond}},
		Workers:     4,
		StatusRatio: 0.001, // effectively all submits
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := rep.Endpoints[0]
	if sub.Endpoint != "submit" {
		t.Fatalf("endpoint order changed: %+v", rep.Endpoints)
	}
	if sub.Backpressure429 != 1 {
		t.Errorf("backpressure count %d, want exactly 1", sub.Backpressure429)
	}
	if sub.Errors != 0 {
		t.Errorf("%d errors; the retried 429 should have succeeded", sub.Errors)
	}
	// The one advertised wait must actually have been served.
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("run finished in %v; never honored Retry-After: 1", elapsed)
	}
	// The retried request's ~1s wait must count toward its latency. The
	// histogram interpolates within the (512ms, 1024ms] bucket, so assert
	// against the bucket floor rather than the exact wait.
	if sub.P99Ms < 512 {
		t.Errorf("p99 %vms; the retried request's wait must count toward latency", sub.P99Ms)
	}
}

func TestRunCountsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Stages:  []Stage{{QPS: 100, Duration: 100 * time.Millisecond}},
		Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var errs, reqs int64
	for _, ep := range rep.Endpoints {
		errs += ep.Errors
		reqs += ep.Requests
	}
	if reqs == 0 || errs != reqs {
		t.Errorf("errors %d of %d requests; every 500 must count", errs, reqs)
	}
}

func TestCheckSLO(t *testing.T) {
	rep := &Report{Endpoints: []EndpointReport{
		{Endpoint: "submit", P99Ms: 12},
		{Endpoint: "status", P99Ms: 80},
	}}
	if err := rep.CheckSLO(50 * time.Millisecond); err == nil {
		t.Error("80ms p99 passed a 50ms SLO")
	}
	if err := rep.CheckSLO(100 * time.Millisecond); err != nil {
		t.Errorf("100ms SLO failed: %v", err)
	}
	if err := rep.CheckSLO(0); err != nil {
		t.Errorf("disabled SLO failed: %v", err)
	}
	if got := rep.P99(); got != 80*time.Millisecond {
		t.Errorf("worst p99 %v, want 80ms", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Stages: []Stage{{QPS: -1, Duration: time.Second}}}); err == nil {
		t.Error("negative qps accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x", Stages: []Stage{{QPS: 1, Duration: time.Second}}, StatusRatio: 2}); err == nil {
		t.Error("ratio > 1 accepted")
	}
	if got := Ramp(100, time.Second, 2*time.Second); len(got) != 2 || got[0].QPS != 50 {
		t.Errorf("Ramp with warmup: %+v", got)
	}
	if got := Ramp(100, 0, 2*time.Second); len(got) != 1 {
		t.Errorf("Ramp without warmup: %+v", got)
	}
}
