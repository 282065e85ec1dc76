package fleet

import (
	"math"
	"math/rand"
	"testing"

	"github.com/pragma-grid/pragma/internal/monitor"
)

// availabilityForecaster is the heartbeat's former forecaster, kept as
// advertise's oracle: a meta-forecaster over the clamped utilization
// series, advertising one minus its prediction, clamped.
type availabilityForecaster struct {
	meta *monitor.Meta
	n    int
}

func (f *availabilityForecaster) Observe(utilization float64) {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	f.meta.Update(utilization)
	f.n++
}

func (f *availabilityForecaster) Available() float64 {
	if f.n == 0 {
		return 1
	}
	avail := 1 - f.meta.Predict()
	if avail < 0 {
		return 0
	}
	if avail > 1 {
		return 1
	}
	return avail
}

// TestAdvertiseMatchesAvailabilityForecaster: over random pool sizes and
// run counts, queued runs pushing utilization above 1 included, every
// advertised CPU figure equals the oracle's bit for bit.
func TestAdvertiseMatchesAvailabilityForecaster(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		slots := 1 + rng.Intn(8)
		var m monitor.Meta
		oracle := &availabilityForecaster{meta: monitor.NewMeta()}
		level := rng.Intn(3 * slots)
		for beat := 0; beat < 200; beat++ {
			if rng.Float64() < 0.3 {
				level = rng.Intn(3 * slots) // up to twice the slots queued
			}
			active := max(level+rng.Intn(3)-1, 0)
			got := advertise(&m, active, slots)
			oracle.Observe(float64(active) / float64(slots))
			if want := oracle.Available(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, heartbeat %d (%d active of %d): advertised %v, oracle %v", trial, beat, active, slots, got, want)
			}
		}
	}
}

// TestAdvertiseTracksSteadyUtilization: a steady quarter of the pool in
// use advertises three quarters free, and an overfull pool advertises
// none.
func TestAdvertiseTracksSteadyUtilization(t *testing.T) {
	var m monitor.Meta
	var got float64
	for i := 0; i < 40; i++ {
		got = advertise(&m, 1, 4)
	}
	if math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("available = %g under steady 25%% use, want 0.75", got)
	}
	var full monitor.Meta
	for i := 0; i < 10; i++ {
		got = advertise(&full, 7, 1)
	}
	if got != 0 {
		t.Errorf("available = %g with runs queued beyond the pool, want 0", got)
	}
}
