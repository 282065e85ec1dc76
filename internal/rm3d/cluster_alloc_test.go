package rm3d

import (
	"math"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// TestClusterAllocatesSignaturesOnce pins samr.Cluster's allocation shape
// on a paper-scale bitmap, the level-1 flags of snapshot 100: the
// signature buffers once per call, plus the output slice's growth. A
// clusterer that allocates per recursion node fails here.
func TestClusterAllocatesSignaturesOnce(t *testing.T) {
	cfg := DefaultConfig()
	domain := cfg.Domain()
	flags := samr.NewFlags(domain)
	for _, f := range cfg.features(100) {
		if b, ok := f.Rasterize(domain, cfg.Ratio, 0); ok {
			flags.SetBox(b)
		}
	}
	out := samr.Cluster(flags, cfg.Cluster)
	if len(out) < 2 {
		t.Fatalf("snapshot 100 level 1 clusters into %d boxes, want several", len(out))
	}
	allocs := testing.AllocsPerRun(20, func() { samr.Cluster(flags, cfg.Cluster) })
	limit := 3 + math.Ceil(math.Log2(float64(len(out)))) + 1
	if allocs > limit {
		t.Fatalf("Cluster allocates %.0f objects for %d boxes, want at most %.0f", allocs, len(out), limit)
	}
}
