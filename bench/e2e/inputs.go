package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"github.com/pragma-grid/pragma/internal/rm3d"
)

// The inputs of every workload are made here from -seed and nothing else.
// The program under test receives only what these functions return: an
// rm3d.Config for the two replay workloads, /sched/submit query strings
// for the two service workloads.
//
// The scenario corpora are stratified: every seed deals the same multiset
// of phase counts, octants and phase lengths and changes only how they are
// paired, the order they are submitted in, and the scenarios' own seeds
// (feature placement). The workload's shape therefore stays the same
// across seeds while no two seeds submit the same scenario, which is what
// lets ten runs on ten seeds agree within the benchmark's bounds.

var romanOctants = []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}

// rm3dConfig is the paper-scale RM3D configuration (128x32x32 base grid,
// 3 levels, 202 snapshots) with the phenomenon's feature placement seeded.
func rm3dConfig(seed int64) rm3d.Config {
	cfg := rm3d.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// deal returns n cards cycling through values, shuffled.
func deal[T any](rng *rand.Rand, values []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = values[i%len(values)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// corpusScenarios returns n scenario strings in the internal/scenario
// grammar: one to three canonical octant witnesses of 6-10 snapshots each
// on the default 48x24x24 three-level envelope.
func corpusScenarios(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	phaseCounts := deal(rng, []int{1, 2, 3}, n)
	total := 0
	for _, c := range phaseCounts {
		total += c
	}
	octants := deal(rng, romanOctants, total)
	lengths := deal(rng, []int{6, 7, 8, 9, 10}, total)
	out := make([]string, n)
	next := 0
	for i, c := range phaseCounts {
		phases := make([]string, c)
		for p := range phases {
			phases[p] = fmt.Sprintf("%s:%d", octants[next], lengths[next])
			next++
		}
		out[i] = fmt.Sprintf("name=corpus-%03d;seed=%d;%s", i, rng.Int63n(1<<31), strings.Join(phases, ","))
	}
	return out
}

// tinyScenarios returns n four-snapshot scenarios on a 16x8x8 two-level
// envelope, the octants dealt evenly: about half a millisecond of replay
// each, so the control plane around the run does most of the work.
func tinyScenarios(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	octants := deal(rng, romanOctants, n)
	out := make([]string, n)
	for i, o := range octants {
		out[i] = fmt.Sprintf("name=tiny-%03d;dims=16x8x8;depth=2;seed=%d;%s:4", i, rng.Int63n(1<<31), o)
	}
	return out
}

// tenants are the three service classes every service workload submits
// under, at fair-share weights 1:2:4.
var tenants = []struct {
	name   string
	weight int
}{{"bronze", 1}, {"silver", 2}, {"gold", 4}}

// submitQueries turns scenario strings into the /sched/submit query
// strings the client posts, cycling the tenants.
func submitQueries(scenarios []string, procs int) []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		t := tenants[i%len(tenants)]
		v := url.Values{}
		v.Set("scenario", s)
		v.Set("strategy", "adaptive")
		v.Set("procs", fmt.Sprint(procs))
		v.Set("tenant", t.name)
		v.Set("weight", fmt.Sprint(t.weight))
		out[i] = v.Encode()
	}
	return out
}
