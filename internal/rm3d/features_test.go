package rm3d

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/pragma-grid/pragma/internal/samr"
)

// freshFeatures is features with a fresh source per seed, as it was drawn
// before the generators were pooled.
func freshFeatures(c Config, idx int) []samr.Feature {
	return c.featuresSeeded(idx, func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) })
}

// TestFeaturesMatchFreshSource: a pooled, re-seeded generator yields the
// features a fresh source does, at every snapshot of both configurations,
// whatever state the pooled generator was left in.
func TestFeaturesMatchFreshSource(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), SmallConfig()} {
		for idx := 0; idx < c.Snapshots(); idx++ {
			if got, want := c.features(idx), freshFeatures(c, idx); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d snapshot %d: pooled features differ from a fresh source's", c.Seed, idx)
			}
		}
	}
}

// TestWorkModelConcurrent: runs weigh regrids from many goroutines at once
// (the scheduler's workers); each must get the work model a lone caller
// gets. Run with -race.
func TestWorkModelConcurrent(t *testing.T) {
	c := SmallConfig()
	n := c.Snapshots()
	want := make([]samr.WorkModel, n)
	for idx := range want {
		want[idx] = c.WorkModel(idx)
	}
	var wg sync.WaitGroup
	errs := make(chan int, 4*n)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				idx := (k + g*7) % n
				if !reflect.DeepEqual(c.WorkModel(idx), want[idx]) {
					errs <- idx
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for idx := range errs {
		t.Fatalf("snapshot %d: concurrent WorkModel differs from a lone caller's", idx)
	}
}
