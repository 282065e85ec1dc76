package monitor

// AvailabilityForecaster predicts a node's next available-CPU fraction
// from its recent utilization series. It is the fleet worker's half of the
// paper's Fig. 4 capacity pipeline: each worker runs one of these over its
// own pool utilization and advertises the *predicted* availability in its
// heartbeats, so the router places runs against where capacity is heading
// rather than where it momentarily was. The prediction comes from the
// NWS-style meta-forecaster, exactly like PredictiveCapacities.
type AvailabilityForecaster struct {
	meta *Meta
	n    int
}

// NewAvailabilityForecaster builds a forecaster over the standard NWS
// predictor pool.
func NewAvailabilityForecaster() *AvailabilityForecaster {
	return &AvailabilityForecaster{meta: NewMeta()}
}

// Observe feeds one utilization sample in [0, 1] (fraction of the node's
// capacity in use). Out-of-range samples are clamped.
func (f *AvailabilityForecaster) Observe(utilization float64) {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	f.meta.Update(utilization)
	f.n++
}

// Available returns the forecast available-CPU fraction in [0, 1]: one
// minus the predicted next utilization. Before any observation it returns
// 1 — a silent node has everything to give, and claiming otherwise would
// starve a freshly joined worker of its first placement.
func (f *AvailabilityForecaster) Available() float64 {
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
