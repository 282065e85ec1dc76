package rm3d_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/pragma-grid/pragma/internal/astro"
	"github.com/pragma-grid/pragma/internal/hydro"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
)

// TestTraceDigestGolden pins the serialized trace bytes — every box of
// every level, in order — of each trace generator: the paper RM3D
// configuration at three seeds, the small one, a scenario-corpus spec,
// the default galaxy and a small Sod-tube solver run. The digests were
// recorded at commit c91fdb7, before the clusterer moved to a word-wise
// signature pass; a change to clustering, flagging or feature placement
// that moves one box shows here. Do not re-record them to make a change
// pass.
func TestTraceDigestGolden(t *testing.T) {
	seeded := func(seed int64) func() (*samr.Trace, error) {
		return func() (*samr.Trace, error) {
			c := rm3d.DefaultConfig()
			c.Seed = seed
			return rm3d.GenerateTrace(c)
		}
	}
	cases := []struct {
		name string
		gen  func() (*samr.Trace, error)
		want string
	}{
		{"rm3d-paper-seed-1", seeded(1), "aeaf1d9d792bff4a3510bc6e9c5d7b63f01eb9f84b00621bbf7205381bbf38e4"},
		{"rm3d-paper-seed-21", seeded(21), "2fdd9dc12d5407005fcb29365b01d13b122fbc3715893bd623f22dc9b4be4c7d"},
		{"rm3d-paper-seed-2002", seeded(2002), "7a0b0feab848776d90e5a53dd60a7739fe99e2b4d3427c189b03fbf060a79226"},
		{"rm3d-small", func() (*samr.Trace, error) { return rm3d.GenerateTrace(rm3d.SmallConfig()) },
			"5ca4e7a2f870bfe56cb52033aee11e9bc11477cd0914db06a391c69c055ab297"},
		{"scenario-corpus-1000", scenario.RandomSpec(1000).Generate,
			"cc05b4f3d791a7096cd97fc97f5e6e991e09f20fab687713cf455a9aa2d34c28"},
		{"astro-galaxy-default", func() (*samr.Trace, error) {
			cfg := astro.DefaultConfig()
			return astro.GenerateTrace(cfg, astro.NewGalaxy(cfg, 12))
		}, "c9398791dce795640af4e915f727be4807c3b9e3348a0952075f3798b6921ce9"},
		{"hydro-sod-small", func() (*samr.Trace, error) {
			g, err := hydro.NewGrid(64, 4, 4, 1.0/64, 1.4)
			if err != nil {
				return nil, err
			}
			hydro.SodX(g)
			return hydro.TraceRun(g, 40, 8, 0.4, 0.02, samr.DefaultClusterOptions())
		}, "6ee03ee5c3832ee66f550d8d17cea6a17fc0e3d778fb552275db88610c6256d5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := samr.WriteTrace(h, tr); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Fatalf("trace digest = %s, want %s", got, c.want)
			}
		})
	}
}
