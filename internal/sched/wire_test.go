package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wireFixture is a scheduler holding two finished records with fixed times.
// Between them every omitempty field of RunStatus is set (status() never
// sets error/resumable/checkpointDir and result on the same record), the
// strings need the <, >, &, quote and U+2028 escapes, and the floats cover
// the 'f' and both 'e' forms.
func wireFixture(t *testing.T) *Scheduler {
	t.Helper()
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Close() })
	t0 := time.Date(2026, 8, 8, 1, 2, 3, 456789000, time.UTC)
	done := make(chan struct{})
	close(done)
	cause := errors.New("core: regrid 3: run interrupted at <boundary>\u2028next \"line\"\n")
	s.mu.Lock()
	s.runs["run-000001"] = &run{
		seq: 1, id: "run-000001", tenant: "a<b>&c\u2028d", priority: -2, weight: 0.5,
		spec:      RunSpec{CheckpointDir: "/tmp/ckpt/a&b/run-000001"},
		state:     StateDrained,
		submitted: t0, started: t0.Add(125 * time.Millisecond), finished: t0.Add(125*time.Millisecond + 100*time.Nanosecond),
		err: cause, errText: cause.Error(), done: done,
		preemptions: 2, placement: `w "2"`, attempt: 3, failovers: 1,
	}
	s.runs["run-000002"] = &run{
		seq: 2, id: "run-000002", tenant: "acme", priority: 1, weight: 1,
		state:     StateDone,
		submitted: t0.Add(time.Second), started: t0.Add(2 * time.Second), finished: t0.Add(3500 * time.Millisecond),
		done: done, placement: "local", attempt: 1,
		result: &core.RunResult{
			Strategy: "adaptive", TotalTime: 1234.5678, ComputeTime: 1e21, CommTime: 2.5e-7,
			PartitionTime: 0.001, MigrationTime: 0, MaxImbalance: 12.25, AvgImbalance: 3.0625,
			AMREfficiency: 87.5, Switches: 2, Recoveries: 1, DegradedRegrids: 1, Steps: 40,
			Snapshots: []core.SnapshotStat{
				{Index: 0, Partitioner: "G-MISP+SP", StepTime: 10.5, Overhead: 0.25,
					Quality: partition.Quality{CommVolume: 4096, CommMessages: 12, Imbalance: 1.5, Migration: 0, PartitionTime: 1500 * time.Microsecond, Overhead: 0.125}},
				{Index: 1, Partitioner: "pBD-ISP", StepTime: 9.75, Overhead: 1e-9,
					Quality: partition.Quality{CommVolume: 2048.5, CommMessages: 6, Imbalance: 12.25, Migration: 0.5, PartitionTime: 2 * time.Millisecond, Overhead: 3}},
			},
		},
	}
	s.mu.Unlock()
	return s
}

// assertGolden compares got with testdata/name byte for byte.
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
		t.Errorf("%s drifted from its golden file\n got: %q\nwant: %q", name, got, want)
	}
}

func TestHandlerStatusAndRunsWireFormatUnchanged(t *testing.T) {
	// The CI smokes, bench/e2e and any existing client parse /sched/status
	// and /sched/runs; the golden files were recorded from the hand-written
	// encoders these endpoints had before they moved to encoding/json.
	srv := httptest.NewServer(Handler(wireFixture(t), nil))
	defer srv.Close()
	for _, c := range []struct{ path, golden string }{
		{"/sched/status?id=run-000002", "status.golden"},
		{"/sched/runs", "runs.golden"},
	} {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", c.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", c.path, ct)
		}
		assertGolden(t, c.golden, body)
	}
}

func TestEncodeFailureIs500NotEmpty200(t *testing.T) {
	// encoding/json has no rendering for NaN and ±Inf. A result from a
	// programmatic Executor or a gauge can carry one; the answer must be a
	// JSON 500, never a 200 whose body is empty.
	s := wireFixture(t)
	s.mu.Lock()
	s.runs["run-000002"].result.TotalTime = math.Inf(1)
	s.mu.Unlock()
	reg := telemetry.NewRegistry()
	reg.Gauge("broken", "").Set(math.NaN())
	funcReg := telemetry.NewRegistry()
	funcReg.GaugeFunc("broken_func", "", func() float64 { return math.Inf(-1) })

	for _, c := range []struct {
		name, path string
		h          http.Handler
	}{
		{"WriteJSON", "/", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			WriteJSON(w, http.StatusAccepted, RunStatus{Result: &core.RunResult{TotalTime: math.Inf(1)}})
		})},
		{"status", "/sched/status?id=run-000002", Handler(s, nil)},
		{"runs", "/sched/runs", Handler(s, nil)},
		{"metrics gauge", "/metrics.json", telemetry.NewHandler(reg, nil, nil)},
		{"metrics gauge func", "/metrics.json", telemetry.NewHandler(funcReg, nil, nil)},
	} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", c.name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", c.name, ct)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: body %q is not an error document (%v)", c.name, rec.Body.Bytes(), err)
		}
	}
}
