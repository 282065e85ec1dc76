package core

import (
	"errors"
	"slices"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
)

// replayCapacities replays the machine samples rows through a fresh
// meta-forecaster per node and calibrates on the predictions for nodes,
// in their order: the oracle of SystemSensitive's streaming forecasters.
func replayCapacities(rows [][]monitor.Reading, nodes []int) ([]float64, error) {
	last := rows[len(rows)-1]
	predicted := make([]monitor.Reading, len(nodes))
	for p, k := range nodes {
		var m monitor.Meta
		for _, row := range rows {
			m.Update(row[k].CPU)
		}
		cpu := m.Predict()
		if cpu < 0 {
			cpu = 0
		}
		if cpu > 1 {
			cpu = 1
		}
		predicted[p] = monitor.Reading{Time: last[k].Time, CPU: cpu, MemoryMB: last[k].MemoryMB, BandwidthMBps: last[k].BandwidthMBps}
	}
	return monitor.Capacities(predicted, monitor.DefaultWeights())
}

// TestProactiveMatchesReplay: at every regrid, a forecasting
// SystemSensitive's capacities equal the replay oracle's over every sample
// so far, bit for bit, on SyntheticLoad, where the forecast is the last
// reading, and on noisyLoad, where it is not; recalibrating every third
// regrid, the forecasters still take a sample at every one.
func TestProactiveMatchesReplay(t *testing.T) {
	tr := testTrace(t)
	noisy := func() *cluster.Cluster {
		c := cluster.LinuxCluster(8, 2002)
		c.Load = noisyLoad{}
		return c
	}
	for _, tc := range []struct {
		name    string
		machine func() *cluster.Cluster
		every   int
	}{
		{"synthetic", func() *cluster.Cluster { return cluster.LinuxCluster(8, 2002) }, 1},
		{"noisy", noisy, 1},
		{"noisy/every-3", noisy, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := &capsProbe{s: &SystemSensitive{RecalibrateEvery: tc.every, Forecast: true}}
			if _, err := Run(tr, probe, RunConfig{Machine: tc.machine(), NProcs: 8}); err != nil {
				t.Fatal(err)
			}
			all := []int{0, 1, 2, 3, 4, 5, 6, 7}
			var rows [][]monitor.Reading
			var want []float64
			for k, c := range probe.calls {
				rows = append(rows, c.row)
				if k%tc.every == 0 {
					var err error
					if want, err = replayCapacities(rows, all); err != nil {
						t.Fatal(err)
					}
				}
				if !slices.Equal(c.caps, want) {
					t.Fatalf("regrid %d: capacities %v, replay %v", k, c.caps, want)
				}
			}
			if len(probe.calls) != len(tr.Snapshots) {
				t.Fatalf("%d regrids probed of %d", len(probe.calls), len(tr.Snapshots))
			}
		})
	}
}

// TestForecastStateIsBounded: a forecasting strategy's checkpoint state
// does not grow with the run: after 200 regrids of the paper trace it is
// no longer than after 40.
func TestForecastStateIsBounded(t *testing.T) {
	strat := &SystemSensitive{RecalibrateEvery: 1, Forecast: true}
	var sizes []int
	_, err := Run(paperTrace(t), strat, RunConfig{Machine: cluster.LinuxCluster(8, 2002), NProcs: 8,
		OnRegrid: func(idx int, _ string) {
			if idx+1 != 40 && idx+1 != 200 {
				return
			}
			state, err := strat.CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, len(state))
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 {
		t.Fatalf("state measured at %d regrids, want 2", len(sizes))
	}
	if sizes[1] > sizes[0] {
		t.Fatalf("checkpoint state is %d bytes after 200 regrids, %d after 40", sizes[1], sizes[0])
	}
}

// TestSystemSensitiveRefusesSampleHistory: a forecasting checkpoint that
// holds the sample history instead of the forecasters' state is refused
// with ErrSampleHistoryState rather than resumed with fresh forecasters.
func TestSystemSensitiveRefusesSampleHistory(t *testing.T) {
	old := `{"caps":[0.6,0.4],"history":[[{"Time":0,"CPU":1,"MemoryMB":512,"BandwidthMBps":100},{"Time":0,"CPU":0.5,"MemoryMB":512,"BandwidthMBps":100}]]}`
	s := &SystemSensitive{RecalibrateEvery: 1, Forecast: true}
	if err := s.RestoreState([]byte(old)); !errors.Is(err, ErrSampleHistoryState) {
		t.Fatalf("restore of a sample history: err = %v, want ErrSampleHistoryState", err)
	}
	// The current shape restores, before its first sample too.
	fresh := &SystemSensitive{RecalibrateEvery: 1, Forecast: true}
	state, err := fresh.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreState(state); err != nil {
		t.Fatalf("restore of %s: %v", state, err)
	}
}
