package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden locks the full text exposition format: HELP and
// TYPE lines, family and child ordering, label escaping, histogram bucket
// cumulativity with +Inf/_sum/_count, and float rendering.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	c := r.CounterVec("pragma_test_requests_total",
		`Requests with "quotes", a \ backslash and a
newline in help.`, "path", "outcome")
	c.With(`/metrics`, "ok").Add(7)
	c.With("with\"quote", `with\slash`).Inc()
	c.With("with\nnewline", "ok").Inc()

	r.Gauge("pragma_test_temperature_celsius", "A plain gauge.").Set(36.6)
	r.Gauge("pragma_test_inf", "Extreme floats.").Set(1e308)

	h := r.Histogram("pragma_test_latency_seconds", "A histogram.", []float64{0.1, 0.5, 2.5})
	for _, v := range []float64{0.05, 0.1, 0.3, 1, 10} {
		h.Observe(v)
	}

	r.GaugeFunc("pragma_test_depth", "Sampled at exposition.", func() float64 { return 3 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}

	assertGolden(t, "exposition.golden", buf.Bytes())
}

// assertGolden compares got with testdata/name byte for byte; -update
// rewrites the file first.
func assertGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestHistogramExpositionCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cum_seconds", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`cum_seconds_bucket{le="1"} 1`,
		`cum_seconds_bucket{le="2"} 2`,
		`cum_seconds_bucket{le="+Inf"} 3`,
		`cum_seconds_sum 11`,
		`cum_seconds_count 3`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestSnapshotFind(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("find_total", "", "who").With("a").Add(5)
	series := r.Snapshot().Find("find_total")
	if len(series) != 1 || series[0].Value != 5 || series[0].Labels["who"] != "a" {
		t.Fatalf("Find = %+v", series)
	}
	if r.Snapshot().Find("absent") != nil {
		t.Fatal("Find(absent) != nil")
	}
}
