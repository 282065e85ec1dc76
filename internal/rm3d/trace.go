package rm3d

import "github.com/pragma-grid/pragma/internal/samr"

// GenerateTrace runs the phenomenon model through the regrid loop and
// returns the adaptation trace: one hierarchy snapshot per regrid step,
// exactly what the paper's single-processor trace run captures (§4.5).
func GenerateTrace(cfg Config) (*samr.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return samr.GenerateTrace("rm3d", "RM3D", cfg.Snapshots(), cfg.RegridEvery, cfg.HierarchyAt)
}

// HierarchyAt regrids the hierarchy for snapshot idx: it flags the
// phenomenon's features on each level and clusters the flags with
// Berger–Rigoutsos, enforcing proper nesting (samr.FeatureHierarchy).
func (cfg Config) HierarchyAt(idx int) (*samr.Hierarchy, error) {
	return samr.FeatureHierarchy(cfg.Domain(), cfg.Ratio, cfg.MaxDepth, cfg.Cluster, cfg.features(idx))
}

// WorkModel returns the computational cost model for the RM3D kernel at
// snapshot idx: a uniform base cost with a surcharge inside the active
// features, modeling the paper's observation that local physics (and hence
// per-zone cost) changes as fronts move through the system.
func (cfg Config) WorkModel(idx int) samr.WorkModel {
	return samr.FeatureWorkModel(cfg.Domain(), cfg.features(idx))
}
