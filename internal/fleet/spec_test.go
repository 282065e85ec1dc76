package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
	"github.com/pragma-grid/pragma/internal/sched"
)

// TestMaterializerCachesWorkModels: the default materializer builds a
// scenario's work models once, with its trace, and every run of that
// scenario reads the same ones. They are the spec's own models, value for
// value; a second materialization hands out the cached models through a
// func that allocates nothing; and a run served from them is the run a
// direct core.Run weighs with the spec's WorkModel.
func TestMaterializerCachesWorkModels(t *testing.T) {
	mat := DefaultMaterializer()
	s := sched.New(sched.Config{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, sc := range []string{
		"name=corpus-000;seed=11;III:6",
		"name=corpus-001;seed=12;V:6,II:7",
		"name=corpus-002;seed=13;VIII:6,I:6,VI:7",
	} {
		spec, err := scenario.ParseSpec(sc)
		if err != nil {
			t.Fatal(err)
		}
		ws := WireSpec{Scenario: sc, Procs: 8}
		first, err := mat(ws)
		if err != nil {
			t.Fatal(err)
		}
		n := len(first.Trace.Snapshots)
		for i := range n {
			if got, want := first.WorkModel(i), spec.WorkModel(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: snapshot %d work model differs from the spec's\n got %+v\nwant %+v", sc, i, got, want)
			}
		}

		second, err := mat(ws)
		if err != nil {
			t.Fatal(err)
		}
		if second.Trace != first.Trace {
			t.Errorf("%s: second materialization regenerated the trace", sc)
		}
		for i := range n {
			a, b := first.WorkModel(i).(samr.FrontWorkModel), second.WorkModel(i).(samr.FrontWorkModel)
			if len(a.Fronts) > 0 && &a.Fronts[0] != &b.Fronts[0] {
				t.Errorf("%s: snapshot %d work model rebuilt, not shared", sc, i)
			}
			if allocs := testing.AllocsPerRun(10, func() { _ = second.WorkModel(i) }); allocs != 0 {
				t.Errorf("%s: snapshot %d work model costs %v allocations, want 0", sc, i, allocs)
			}
		}

		tr, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(tr, core.Adaptive{ImbalanceGuard: 20}, core.RunConfig{
			Machine: cluster.SP2(8), NProcs: 8, WorkModel: spec.WorkModel,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Submit(sched.SubmitRequest{Tenant: "t", Spec: second})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Wait(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		sameRunResult(t, sc+" through sched", got.Result, want)
	}
}

// TestSingleNodeSubmitRejectsHugeProcs: a single-node scheduler
// materializes before admission, so an out-of-range procs= is answered
// 400 and allocates no machine.
func TestSingleNodeSubmitRejectsHugeProcs(t *testing.T) {
	s := sched.New(sched.Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(sched.Handler(s, SpecBuilder("", DefaultMaterializer())))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/sched/submit?trace=small&procs=100000", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit with procs=100000 answered %d, want 400", resp.StatusCode)
	}
}

// TestMaterializerCacheBounded: the trace cache keeps the latest
// maxCachedTraces traces. A key pushed out by newer ones regenerates its
// trace; a recent key still shares the cached one.
func TestMaterializerCacheBounded(t *testing.T) {
	mat := DefaultMaterializer()
	ws := func(seed int) WireSpec {
		return WireSpec{Scenario: "dims=16x8x8;depth=2;III:2", Seed: int64(seed), SeedSet: true, Procs: 4}
	}
	traces := make([]*samr.Trace, maxCachedTraces+1)
	for i := range traces {
		spec, err := mat(ws(i))
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = spec.Trace
	}
	last, err := mat(ws(maxCachedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if last.Trace != traces[maxCachedTraces] {
		t.Error("the most recent key regenerated its trace")
	}
	first, err := mat(ws(0))
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace == traces[0] {
		t.Error("the oldest key still shares its trace past the cache bound")
	}
	if !reflect.DeepEqual(first.Trace, traces[0]) {
		t.Error("the regenerated trace differs from the evicted one")
	}
}
