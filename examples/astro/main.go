// Astro: the other two driver applications of the paper's §2 — galaxy
// formation (hierarchical merging) and an aspherical supernova — run
// through the same Pragma pipeline as RM3D. Their octant trajectories
// differ characteristically: the galaxy run starts in scattered
// communication-dominated states (many small halos, high surface-to-volume)
// and consolidates as halos merge, while the supernova's growing shell and
// debris field stay computation-dominated.
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/pragma-grid/pragma"
)

func main() {
	// The galaxy run uses the full-length configuration so the merger
	// history plays out; the supernova uses the short one.
	galaxy, err := pragma.GenerateGalaxy(pragma.AstroDefault(), 12)
	if err != nil {
		log.Fatal(err)
	}
	supernova, err := pragma.GenerateSupernova(pragma.AstroSmall())
	if err != nil {
		log.Fatal(err)
	}

	for _, trace := range []*pragma.Trace{galaxy, supernova} {
		fmt.Printf("=== %s (%d snapshots) ===\n", trace.Name, len(trace.Snapshots))
		chars, err := pragma.ClassifyTrace(trace)
		if err != nil {
			log.Fatal(err)
		}
		visits := map[pragma.Octant]int{}
		for _, c := range chars {
			visits[c.Octant]++
		}
		var occupancy []string
		for o := pragma.Octant(1); o <= 8; o++ {
			if visits[o] > 0 {
				occupancy = append(occupancy, fmt.Sprintf("%s:%d", o, visits[o]))
			}
		}
		fmt.Println("octant occupancy:", strings.Join(occupancy, " "))

		res, err := pragma.Runtime{
			Trace:    trace,
			Machine:  pragma.NewCluster(16),
			Strategy: pragma.Adaptive(),
		}.Execute()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("adaptive replay: run-time %.2fs, max imbalance %.1f%%, switches %d\n\n",
			res.TotalTime, res.MaxImbalance, res.Switches)
	}
}
