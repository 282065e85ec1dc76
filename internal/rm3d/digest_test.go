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
// that moves one box shows here. The cases from "astro-supernova-default"
// on pin the paths the first set leaves open (the supernova, the two-level
// galaxy, the small RM3D config at one and two levels, parsed specs of all
// eight octant witnesses at one and two levels); they were recorded at
// commit 64c2068, before the four generators' regrid pipelines were folded
// into one. Do not re-record any of them to make a change pass.
func TestTraceDigestGolden(t *testing.T) {
	smallAtDepth := func(depth int) func() (*samr.Trace, error) {
		return func() (*samr.Trace, error) {
			c := rm3d.SmallConfig()
			c.MaxDepth = depth
			return rm3d.GenerateTrace(c)
		}
	}
	parsed := func(s string) func() (*samr.Trace, error) {
		return func() (*samr.Trace, error) {
			spec, err := scenario.ParseSpec(s)
			if err != nil {
				return nil, err
			}
			return spec.Generate()
		}
	}
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
		{"astro-supernova-default", func() (*samr.Trace, error) {
			cfg := astro.DefaultConfig()
			return astro.GenerateTrace(cfg, astro.NewSupernova(cfg))
		}, "bd568b8cf04c0e6580d1d4df24a7734de982acdbfaacaa7a7d252093599a9eb8"},
		{"astro-galaxy-depth-2", func() (*samr.Trace, error) {
			cfg := astro.DefaultConfig()
			cfg.MaxDepth = 2
			return astro.GenerateTrace(cfg, astro.NewGalaxy(cfg, 12))
		}, "e480681d00d9360ef99fc19e5364d2bc33a932b8a882752ece15f78ab81a9ac9"},
		{"rm3d-small-depth-1", smallAtDepth(1), "75084f0d27113c1074ad4db73168b812e9f3e6d5c620381597f51bc81563244a"},
		{"rm3d-small-depth-2", smallAtDepth(2), "5d1dc3ac4c170f43be98216f00e75907334d4d19e1e3ff7439a384a70bd80956"},
		{"scenario-octants-depth-2", parsed("depth=2;seed=5;I:3,II:3,III:3,IV:3,V:3,VI:3,VII:3,VIII:3"), "5a4604d7d42ae29e3447da9c8532bc2102e799838c92466a1ed1e3d1860f8236"},
		{"scenario-octants-depth-1", parsed("depth=1;seed=5;I:3,II:3,III:3,IV:3,V:3,VI:3,VII:3,VIII:3"), "87b6ea10779277b25969d29a2ae2c60ccdb57959067ee97e77e41399b4447c11"},
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
