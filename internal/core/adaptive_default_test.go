package core

import (
	"reflect"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/policy"
	"github.com/pragma-grid/pragma/internal/samr"
)

// TestAdaptiveNilMetaSharesOneDefault: an Adaptive with a nil Meta behaves
// exactly as one handed NewMetaPartitioner(), run after run, and resolving
// the default no longer builds policy.Table2() at every regrid — an Assign
// with a nil Meta allocates what one with an explicit Meta does, not that
// plus a policy base.
func TestAdaptiveNilMetaSharesOneDefault(t *testing.T) {
	tr := testTrace(t)
	run := func(s Adaptive) *RunResult {
		t.Helper()
		res, err := Run(tr, s, RunConfig{Machine: cluster.Homogeneous(8, 1e5, 512, 100), NProcs: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(Adaptive{Meta: NewMetaPartitioner(), ImbalanceGuard: 20})
	for i := 0; i < 2; i++ {
		if got := run(Adaptive{ImbalanceGuard: 20}); !reflect.DeepEqual(got, want) {
			t.Fatalf("nil-Meta run %d differs from the run with an explicit NewMetaPartitioner()", i)
		}
	}

	ctx := &StepContext{Index: 1, Trace: tr, Snap: tr.Snapshots[1], WM: samr.UniformWorkModel{}, NProcs: 8}
	assign := func(s Adaptive) func() {
		return func() {
			if _, _, err := s.Assign(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(20, func() { policy.Table2() })
	explicit := testing.AllocsPerRun(20, assign(Adaptive{Meta: NewMetaPartitioner()}))
	nilMeta := testing.AllocsPerRun(20, assign(Adaptive{}))
	if base < 10 {
		t.Fatalf("policy.Table2() allocates %.0f times; the bound below is vacuous", base)
	}
	if nilMeta > explicit+base/2 {
		t.Fatalf("Assign with a nil Meta allocates %.0f times, %.0f with an explicit one: it is building a policy base (%.0f allocations) per call",
			nilMeta, explicit, base)
	}
}
