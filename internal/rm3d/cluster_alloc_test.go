package rm3d

import (
	"math"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/telemetry"
)

// snapshot100Flags returns a paper-scale bitmap: the flags of snapshot 100
// that level 1 refines.
func snapshot100Flags() (Config, *samr.Flags) {
	cfg := DefaultConfig()
	domain := cfg.Domain()
	flags := samr.NewFlags(domain)
	for _, f := range cfg.features(100) {
		if b, ok := f.Rasterize(domain, cfg.Ratio, 0); ok {
			flags.SetBox(b)
		}
	}
	return cfg, flags
}

// TestClusterAllocatesSignaturesOnce pins samr.Cluster's allocation shape
// on a paper-scale bitmap, the level-1 flags of snapshot 100: at most the
// signature stack once per call, plus the output slice's growth. A
// clusterer that allocates per recursion node fails here.
func TestClusterAllocatesSignaturesOnce(t *testing.T) {
	cfg, flags := snapshot100Flags()
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

// signatureRows reads the process's count of bitmap rows visited by
// Berger–Rigoutsos signature passes.
func signatureRows() float64 {
	var n float64
	for _, s := range telemetry.Default.Snapshot().Find("pragma_samr_signature_rows_total") {
		n += s.Value
	}
	return n
}

// TestClusterScansSmallerChildren counts the bitmap rows the signature
// passes visit clustering the bitmap of TestClusterAllocatesSignaturesOnce.
// A clusterer that rescans every recursion node's region, starting from
// the whole bounds, visits 5696 rows in 21 passes there: the sum of
// region.Dx(1)*region.Dx(2) over its signature calls, counted on commit
// 0501914's samr. Scanning from the flagged cells' bounding box, only the
// smaller child of each cut, must visit at most half of that.
func TestClusterScansSmallerChildren(t *testing.T) {
	const rescanRows = 5696
	cfg, flags := snapshot100Flags()
	before := signatureRows()
	samr.Cluster(flags, cfg.Cluster)
	rows := signatureRows() - before
	if rows <= 0 || rows > rescanRows/2 {
		t.Fatalf("Cluster visited %.0f bitmap rows, want between 1 and %d (half of a rescanning clusterer's %d)", rows, rescanRows/2, rescanRows)
	}
}
