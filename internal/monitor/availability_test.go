package monitor

import (
	"math"
	"testing"
)

func TestAvailabilityBeforeObservationIsFull(t *testing.T) {
	if got := NewAvailabilityForecaster().Available(); got != 1 {
		t.Fatalf("silent node advertises %g, want 1", got)
	}
}

func TestAvailabilityTracksSteadyUtilization(t *testing.T) {
	f := NewAvailabilityForecaster()
	for i := 0; i < 40; i++ {
		f.Observe(0.25)
	}
	if got := f.Available(); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("available = %g under steady 25%% use, want 0.75", got)
	}
}

func TestAvailabilityClampsSamples(t *testing.T) {
	full := NewAvailabilityForecaster()
	for i := 0; i < 10; i++ {
		full.Observe(7)
	}
	if got := full.Available(); got != 0 {
		t.Errorf("available = %g after utilization above 1, want 0", got)
	}
	idle := NewAvailabilityForecaster()
	for i := 0; i < 10; i++ {
		idle.Observe(-3)
	}
	if got := idle.Available(); got != 1 {
		t.Errorf("available = %g after negative utilization, want 1", got)
	}
}

func TestMetaName(t *testing.T) {
	if got := NewMeta().Name(); got != "nws-meta" {
		t.Fatalf("name = %q", got)
	}
}
