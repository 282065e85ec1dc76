package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// The rule: report the highest percentile with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		is   float64
	}{
		{10000, 0.999, 0.999},
		{9999, 0.999, 0.99},
		{1000, 0.99, 0.99},
		{999, 0.99, 0.95},
		{200, 0.99, 0.95},
		{199, 0.99, 0.9},
		{100, 0.95, 0.9},
		{99, 0.95, 0.75},
		{40, 0.99, 0.75},
		{39, 0.99, 0.5},
		{5, 0.95, 0.5},
		{100000, 0.95, 0.95}, // never above what was asked for
	} {
		if got := supportedTail(tc.n, tc.want); got != tc.is {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.is)
		}
	}
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 0.99); got != 135 { // p90 of 1..150
		t.Errorf("tail(1..150, 0.99) = %v, want the p90, 135", got)
	}
}

func TestUsageDelta(t *testing.T) {
	before := usage{cpu: 2 * time.Second, allocB: 1000, gcCycles: 4, gcPause: time.Millisecond, maxRSSKB: 500}
	after := usage{cpu: 5 * time.Second, allocB: 4500, gcCycles: 9, gcPause: 3 * time.Millisecond, maxRSSKB: 800}
	d := after.sub(before)
	want := usage{cpu: 3 * time.Second, allocB: 3500, gcCycles: 5, gcPause: 2 * time.Millisecond, maxRSSKB: 800}
	if d != want {
		t.Errorf("delta = %+v, want %+v", d, want)
	}
}

var allocSink []byte

func TestReadUsageMoves(t *testing.T) {
	before := readUsage()
	for i := 0; i < 64; i++ {
		allocSink = make([]byte, 1<<20)
	}
	calibrate()
	d := readUsage().sub(before)
	if d.allocB < 64<<20 {
		t.Errorf("TotalAlloc delta %d after allocating 64 MiB", d.allocB)
	}
	if d.cpu <= 0 {
		t.Errorf("CPU delta %v after a calibration loop", d.cpu)
	}
	if d.maxRSSKB <= 0 {
		t.Errorf("peak RSS %d KB", d.maxRSSKB)
	}
}

func TestLittleRatio(t *testing.T) {
	// 4 outstanding, 100 runs/s, 40 ms each: exactly Little's law.
	if got := littleRatio(4, 100, 0.040); got < 0.999 || got > 1.001 {
		t.Errorf("ratio = %v, want 1", got)
	}
	// The generator let the window run half empty: throughput halves.
	if got := littleRatio(4, 50, 0.040); got < 1.999 || got > 2.001 {
		t.Errorf("ratio = %v, want 2", got)
	}
	if got := littleRatio(4, 0, 0.040); got != 0 {
		t.Errorf("ratio with no throughput = %v, want 0", got)
	}
}

func windowsWithSteal(steals ...float64) *phase {
	ph := &phase{}
	for i, s := range steals {
		ph.windows = append(ph.windows, window{
			runs: 10, wall: time.Second, cpu: time.Second, stealPct: s,
			runMS: []float64{float64(i)}, opMS: []float64{float64(i)},
		})
	}
	return ph
}

func TestSteadyKeepsTheWindowsTheHostLeftAlone(t *testing.T) {
	// Four quiet windows out of six: those four, whatever their order.
	got := windowsWithSteal(0, 22, 0.5, 1, 7.5, 0).steady()
	if got.runs != 40 || got.wall != 4*time.Second || got.stealPct != 1 {
		t.Errorf("kept %d runs over %v with steal up to %v, want 40 over 4s up to 1", got.runs, got.wall, got.stealPct)
	}
	if len(got.runMS) != 4 || sum(got.runMS) != 0+2+3+5 {
		t.Errorf("kept the samples of windows %v, want 0, 2, 3 and 5", got.runMS)
	}
	// A host that never was quiet: the least disturbed third stands in.
	got = windowsWithSteal(30, 12, 8, 40, 9, 25).steady()
	if got.runs != 20 || got.stealPct != 9 {
		t.Errorf("kept %d runs with steal up to %v, want the two calmest windows (20 runs, 9)", got.runs, got.stealPct)
	}
	// No steal counter at all (not Linux): everything is kept.
	if got = windowsWithSteal(0, 0, 0).steady(); got.runs != 30 {
		t.Errorf("kept %d runs of an undisturbed phase, want all 30", got.runs)
	}
	if got = windowsWithSteal(50).steady(); got.runs != 10 {
		t.Errorf("kept %d runs of a one-window phase, want its 10", got.runs)
	}
}

func TestHostStealReadsProcStat(t *testing.T) {
	steal, total := hostSteal()
	if total == 0 {
		t.Skip("no /proc/stat on this host")
	}
	if steal < 0 || steal > total {
		t.Errorf("steal %v of %v ticks", steal, total)
	}
}
