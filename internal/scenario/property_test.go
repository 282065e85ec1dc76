package scenario

import (
	"bytes"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/policy"
	"github.com/pragma-grid/pragma/internal/samr"
)

// This file is the octant-coverage property harness: it proves, against
// generated scenarios rather than the single RM3D script, that every
// octant I-VIII is reachable from the generator space, that the octant
// classifier recovers each driver's declared signature, and that
// core.Run's meta-partitioner selections conform to policy.Table2()
// across a randomized seeded corpus.

// warmup is the number of leading snapshots excluded from signature
// checks: snapshot 0 has no predecessor (its measured dynamics is always
// 0) and windowed classification needs a step to settle.
const warmup = 2

// classifyPhase classifies every post-warmup snapshot of a single-phase
// trace with the given dynamics window and returns the majority octant
// (ties broken toward the lower octant) plus the per-snapshot
// characterizations for diagnostics.
func classifyPhase(t *testing.T, tr *samr.Trace, window int) (octant.Octant, []octant.Characterization) {
	t.Helper()
	chars, err := octant.CharacterizeTrace(tr, octant.DefaultThresholds(), window)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	if len(chars) <= warmup {
		t.Fatalf("trace too short for warmup: %d snapshots", len(chars))
	}
	var votes [9]int
	for _, c := range chars[warmup:] {
		if c.Octant.Valid() {
			votes[c.Octant]++
		}
	}
	best := octant.I
	for o := octant.I; o <= octant.VIII; o++ {
		if votes[o] > votes[best] {
			best = o
		}
	}
	return best, chars
}

// singleDriverSpec builds the canonical single-phase scenario for one
// driver on the default envelope.
func singleDriverSpec(d Driver, seed int64, snapshots int) Spec {
	spec := Default()
	spec.Name = "probe-" + d.Name()
	spec.Seed = seed
	spec.Phases = []Phase{{Snapshots: snapshots, Drivers: []Driver{d}}}
	return spec
}

// TestEveryOctantReachable proves the generator space covers the paper's
// whole octant taxonomy: for each octant I-VIII the canonical witness
// driver generates a trace whose post-warmup majority classification is
// exactly that octant.
func TestEveryOctantReachable(t *testing.T) {
	for o := octant.I; o <= octant.VIII; o++ {
		o := o
		t.Run(o.String(), func(t *testing.T) {
			d := ForOctant(o)
			if got := d.Signature().Octant(); got != o {
				t.Fatalf("ForOctant(%v) declares %v", o, got)
			}
			tr, err := singleDriverSpec(d, 11, 10).Generate()
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			got, chars := classifyPhase(t, tr, 1)
			if got != o {
				for _, c := range chars {
					t.Logf("snap %d: state %+v -> %v", c.Index, c.State, c.Octant)
				}
				t.Fatalf("driver %s: majority octant %v, want %v", d.Name(), got, o)
			}
		})
	}
}

// TestClassifierRecoversDriverSignatures checks the octant-signature
// contract for the whole driver library: a single-driver phase classifies
// into the driver's declared Signature().Octant(). MergingFronts is a
// transition driver and is checked separately.
func TestClassifierRecoversDriverSignatures(t *testing.T) {
	for _, d := range library() {
		if d.Name() == "merge" {
			continue
		}
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			want := d.Signature().Octant()
			for _, seed := range []int64{3, 17, 4242} {
				tr, err := singleDriverSpec(d, seed, 9).Generate()
				if err != nil {
					t.Fatalf("seed %d: generate: %v", seed, err)
				}
				got, chars := classifyPhase(t, tr, 1)
				if got != want {
					for _, c := range chars {
						t.Logf("snap %d: state %+v -> %v", c.Index, c.State, c.Octant)
					}
					t.Fatalf("seed %d: driver %s classifies %v, want declared %v", seed, d.Name(), got, want)
				}
			}
		})
	}
}

// TestMergingFrontsTransitions checks the transition driver: the
// approaching regime classifies into its declared octant VI and the
// post-merge tail settles into octant I — an in-phase octant transition.
func TestMergingFrontsTransitions(t *testing.T) {
	d := MergingFronts()
	if got := d.Signature().Octant(); got != octant.VI {
		t.Fatalf("declared octant %v, want VI", got)
	}
	tr, err := singleDriverSpec(d, 5, 16).Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	chars, err := octant.CharacterizeTrace(tr, octant.DefaultThresholds(), 1)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	for _, c := range chars {
		t.Logf("snap %d: state %+v -> %v", c.Index, c.State, c.Octant)
	}
	for i := warmup; i < 5; i++ {
		if chars[i].Octant != octant.VI {
			t.Errorf("approach snap %d: octant %v, want VI", i, chars[i].Octant)
		}
	}
	last := chars[len(chars)-1]
	if last.Octant != octant.I {
		t.Errorf("post-merge snap %d: octant %v, want I", last.Index, last.Octant)
	}
}

// conformanceMachine is the simulated machine the corpus replays on.
func conformanceMachine() *cluster.Cluster { return cluster.SP2(8) }

// runSpec replays a generated scenario under the strict Table-2 adaptive
// strategy (no imbalance guard, so every selection is the rule base's).
func runSpec(t *testing.T, spec Spec) (*samr.Trace, *core.RunResult) {
	t.Helper()
	tr, err := spec.Generate()
	if err != nil {
		t.Fatalf("%s: generate: %v", spec.Name, err)
	}
	res, err := core.Run(tr, core.Adaptive{}, core.RunConfig{
		Machine:   conformanceMachine(),
		WorkModel: spec.WorkModel,
	})
	if err != nil {
		t.Fatalf("%s: run: %v", spec.Name, err)
	}
	return tr, res
}

// TestTable2ConformanceCorpus replays a seeded randomized corpus of
// scenarios under core.Run's meta-partitioner and checks, snapshot by
// snapshot, that the partitioner it selected is Table 2's first
// recommendation for the octant the snapshot classifies into. The corpus
// has >= 100 scenarios (trimmed under -short) and every member is
// regenerable from its seed alone.
func TestTable2ConformanceCorpus(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 16
	}
	recs := policy.Table2Recommendations()
	th := octant.DefaultThresholds()
	meta := core.NewMetaPartitioner()
	covered := map[octant.Octant]int{}
	for _, spec := range Corpus(1000, n) {
		tr, res := runSpec(t, spec)
		if len(res.Snapshots) != len(tr.Snapshots) {
			t.Fatalf("%s: %d stats for %d snapshots", spec.Name, len(res.Snapshots), len(tr.Snapshots))
		}
		for _, stat := range res.Snapshots {
			state, err := octant.StateAt(tr, stat.Index, meta.Window)
			if err != nil {
				t.Fatalf("%s: state at %d: %v", spec.Name, stat.Index, err)
			}
			oct := octant.Classify(state, th)
			covered[oct]++
			want := recs[oct.String()][0]
			if stat.Partitioner != want {
				t.Fatalf("%s snap %d: octant %v selected %q, Table 2 wants %q",
					spec.Name, stat.Index, oct, stat.Partitioner, want)
			}
		}
	}
	t.Logf("corpus octant coverage: %v", covered)
	if !testing.Short() {
		for o := octant.I; o <= octant.VIII; o++ {
			if covered[o] == 0 {
				t.Errorf("corpus never visited octant %v", o)
			}
		}
	}
}

// TestCorpusBitIdenticalRegeneration checks the explicit-seed contract on
// the corpus: regenerating a member from its seed yields a byte-identical
// serialized trace.
func TestCorpusBitIdenticalRegeneration(t *testing.T) {
	for _, seed := range []int64{1000, 1017, 1042, 1099} {
		a, err := RandomSpec(seed).Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := RandomSpec(seed).Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var bufA, bufB bytes.Buffer
		if err := samr.WriteTrace(&bufA, a); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		if err := samr.WriteTrace(&bufB, b); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
			t.Errorf("seed %d: regenerated trace differs byte-wise", seed)
		}
	}
}

// TestCompositionalScenarioSwitchesPartitioners runs an adaptive
// compositional scenario — driver sets switching mid-run, the
// cs/0301018-style model switch — and checks the octant transitions force
// the meta-partitioner to actually switch schemes.
func TestCompositionalScenarioSwitchesPartitioners(t *testing.T) {
	spec := Default()
	spec.Name = "compositional"
	spec.Seed = 7
	// Phase octants alternate between Table-2 recommendations (V: pBD-ISP,
	// III: G-MISP+SP, VI: pBD-ISP) so each transition forces a switch.
	spec.Phases = []Phase{
		{Snapshots: 8, Drivers: []Driver{Sheet(High)}, Expect: octant.V},
		{Snapshots: 8, Drivers: []Driver{Block(Low)}, Expect: octant.III},
		{Snapshots: 8, Drivers: []Driver{SheetField(4, High)}, Expect: octant.VI},
	}
	tr, res := runSpec(t, spec)
	if res.Switches < 2 {
		t.Errorf("compositional run switched %d times, want >= 2", res.Switches)
	}
	seen := map[string]bool{}
	for _, stat := range res.Snapshots {
		seen[stat.Partitioner] = true
	}
	if !seen["pBD-ISP"] || !seen["G-MISP+SP"] {
		t.Errorf("partitioners seen %v, want both pBD-ISP (octant V) and G-MISP+SP (octants III/VIII)", seen)
	}
	// The declared trajectory annotates the same run: phase expectations
	// hold in the steady part of each phase (skip per-phase warmup while
	// the windowed dynamics estimate crosses the driver change).
	chars, err := octant.CharacterizeTrace(tr, octant.DefaultThresholds(), 1)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	for _, exp := range spec.Trajectory() {
		if !exp.Known {
			t.Fatalf("phase %s has no expectation", exp.Phase)
		}
		for i := exp.Start + warmup; i < exp.End; i++ {
			if chars[i].Octant != exp.Octant {
				t.Errorf("phase %s snap %d: octant %v, want %v (state %+v)",
					exp.Phase, i, chars[i].Octant, exp.Octant, chars[i].State)
			}
		}
	}
}
