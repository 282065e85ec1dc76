package telemetry

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("srv_total", "a counter").Add(9)
	tr := NewTracer(4)
	c := tr.Begin("regrid")
	c.StartSpan("repartition")
	c.EndSpan()
	c.End()

	srv := httptest.NewServer(NewHandler(r, tr, nil))
	defer srv.Close()

	code, body, ct := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	if !strings.Contains(body, "srv_total 9\n") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	code, body, ct = get(t, srv, "/metrics.json")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/metrics.json status %d content-type %q", code, ct)
	}
	if !strings.Contains(body, `"srv_total"`) {
		t.Fatalf("/metrics.json missing metric:\n%s", body)
	}

	code, body, _ = get(t, srv, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body, _ = get(t, srv, "/debug/pragma")
	if code != http.StatusOK {
		t.Fatalf("/debug/pragma status %d", code)
	}
	if !strings.Contains(body, `"name":"regrid"`) || !strings.Contains(body, `"repartition"`) {
		t.Fatalf("/debug/pragma missing trace:\n%s", body)
	}
}

func TestMetricsJSONWireFormatUnchanged(t *testing.T) {
	// Every metric shape /metrics.json renders, byte for byte: the golden
	// file was recorded from the hand-written encoder the endpoint had
	// before it went back to encoding/json over Snapshot.
	r := NewRegistry()
	r.Counter("plain_total", "a <plain> counter").Add(42)
	gv := r.GaugeVec("load", "labeled gauge", "zone", "az")
	gv.With("east", "b \"1\"").Set(0.25)
	gv.With("west", "a\u2028").Set(1e-9)
	h := r.Histogram("latency_seconds", "request latency", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 0.002)
	}
	r.Histogram("empty_hist", "", []float64{1, 2})
	r.GaugeFunc("computed", "sampled at exposition", func() float64 { return 12.5 })
	srv := httptest.NewServer(NewHandler(r, nil, nil))
	defer srv.Close()

	code, body, ct := get(t, srv, "/metrics.json")
	if code != http.StatusOK || ct != "application/json" {
		t.Errorf("/metrics.json status %d content-type %q", code, ct)
	}
	assertGolden(t, "metrics_json.golden", []byte(body))

	empty := httptest.NewServer(NewHandler(NewRegistry(), nil, nil))
	defer empty.Close()
	if _, body, _ := get(t, empty, "/metrics.json"); body != "{\"metrics\":null}\n" {
		t.Errorf("empty registry renders %q", body)
	}
}

func TestReadyzNotReady(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry(), nil, func() error {
		return errors.New("control network partitioned")
	}))
	defer srv.Close()
	code, body, _ := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status %d, want 503", code)
	}
	if !strings.Contains(body, "control network partitioned") {
		t.Fatalf("/readyz body %q", body)
	}
	if code, _, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status %d while not ready, want 200", code)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("live_total", "").Inc()
	srv, err := Serve("127.0.0.1:0", r, NewTracer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "live_total 1") {
		t.Fatalf("served metrics missing counter:\n%s", body)
	}
}
