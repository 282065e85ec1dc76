package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/core"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
	"github.com/pragma-grid/pragma/internal/sched"
)

// TestMaterializerCachesWorkModels: the default materializer builds a
// trace's work models once, with the trace, and every run of that trace
// reads the same ones. They are the spec's own models (a scenario's, or
// the RM3D configuration's for a built-in trace), value for value; a
// second materialization hands out the cached models through a func that
// allocates nothing; and a run served from them is the run a direct
// core.Run weighs with the same WorkModel. The paper trace on 64
// processors is Table 4's adaptive row.
func TestMaterializerCachesWorkModels(t *testing.T) {
	mat := DefaultMaterializer()
	s := sched.New(sched.Config{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type source struct {
		ws        WireSpec
		generate  func() (*samr.Trace, error)
		workModel func(idx int) samr.WorkModel
	}
	var sources []source
	for _, sc := range []string{
		"name=corpus-000;seed=11;III:6",
		"name=corpus-001;seed=12;V:6,II:7",
		"name=corpus-002;seed=13;VIII:6,I:6,VI:7",
	} {
		spec, err := scenario.ParseSpec(sc)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{WireSpec{Scenario: sc, Procs: 8}, spec.Generate, spec.WorkModel})
	}
	paper := rm3d.DefaultConfig()
	sources = append(sources, source{WireSpec{Trace: "paper", Procs: 64},
		func() (*samr.Trace, error) { return rm3d.GenerateTrace(paper) }, paper.WorkModel})

	for _, src := range sources {
		name := src.ws.Scenario
		if name == "" {
			name = "trace=" + src.ws.Trace
		}
		first, err := mat(src.ws)
		if err != nil {
			t.Fatal(err)
		}
		if first.WorkModel == nil {
			t.Fatalf("%s: materialized without a work model, so it runs on the uniform one", name)
		}
		n := len(first.Trace.Snapshots)
		for i := range n {
			if got, want := first.WorkModel(i), src.workModel(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: snapshot %d work model differs from the spec's\n got %+v\nwant %+v", name, i, got, want)
			}
		}

		second, err := mat(src.ws)
		if err != nil {
			t.Fatal(err)
		}
		if second.Trace != first.Trace {
			t.Errorf("%s: second materialization regenerated the trace", name)
		}
		for i := range n {
			a, b := first.WorkModel(i).(samr.FrontWorkModel), second.WorkModel(i).(samr.FrontWorkModel)
			if len(a.Fronts) > 0 && &a.Fronts[0] != &b.Fronts[0] {
				t.Errorf("%s: snapshot %d work model rebuilt, not shared", name, i)
			}
			if allocs := testing.AllocsPerRun(10, func() { _ = second.WorkModel(i) }); allocs != 0 {
				t.Errorf("%s: snapshot %d work model costs %v allocations, want 0", name, i, allocs)
			}
		}

		tr, err := src.generate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(tr, core.Adaptive{ImbalanceGuard: 20}, core.RunConfig{
			Machine: cluster.SP2(src.ws.Procs), NProcs: src.ws.Procs, WorkModel: src.workModel,
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
		sameRunResult(t, name+" through sched", got.Result, want)
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

// TestTraceCacheGeneratesOutsideTheLock drives the materializer's trace
// cache with injected generators: a slow miss blocks only the callers of
// its own key, concurrent misses of one key generate once, a failure is
// not kept, and the oldest key is the one evicted.
func TestTraceCacheGeneratesOutsideTheLock(t *testing.T) {
	noModel := func(int) samr.WorkModel { return samr.UniformWorkModel{} }
	ready := func(tr *samr.Trace) func() (*samr.Trace, error) {
		return func() (*samr.Trace, error) { return tr, nil }
	}
	never := func() (*samr.Trace, error) {
		t.Error("a cached key generated again")
		return nil, errors.New("unexpected generation")
	}

	t.Run("hit during another key's miss", func(t *testing.T) {
		tc := newTraceCache()
		hot := &samr.Trace{Name: "hot"}
		if _, err := tc.get("hot", ready(hot), noModel); err != nil {
			t.Fatal(err)
		}
		started, release := make(chan struct{}), make(chan struct{})
		cold := make(chan error, 1)
		go func() {
			_, err := tc.get("cold", func() (*samr.Trace, error) {
				close(started)
				<-release
				return &samr.Trace{Name: "cold"}, nil
			}, noModel)
			cold <- err
		}()
		<-started
		hit := make(chan *samr.Trace, 1)
		go func() {
			c, _ := tc.get("hot", never, noModel)
			hit <- c.tr
		}()
		select {
		case tr := <-hit:
			if tr != hot {
				t.Fatalf("hit returned %v, want the cached trace", tr)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a cache hit waited for another key's generation")
		}
		close(release)
		if err := <-cold; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("concurrent misses generate once", func(t *testing.T) {
		tc := newTraceCache()
		var calls atomic.Int32
		started, release := make(chan struct{}), make(chan struct{})
		gen := func() (*samr.Trace, error) {
			calls.Add(1)
			close(started)
			<-release
			return &samr.Trace{Name: "k"}, nil
		}
		const n = 8
		got := make(chan *samr.Trace, n)
		for i := 0; i < n; i++ {
			go func() {
				c, err := tc.get("k", gen, noModel)
				if err != nil {
					t.Error(err)
				}
				got <- c.tr
			}()
		}
		<-started
		close(release)
		first := <-got
		for i := 1; i < n; i++ {
			if tr := <-got; tr != first {
				t.Fatal("concurrent callers of one key got different traces")
			}
		}
		if c := calls.Load(); c != 1 {
			t.Fatalf("%d generations for one key, want 1", c)
		}
	})

	t.Run("errors are not cached", func(t *testing.T) {
		tc := newTraceCache()
		boom := errors.New("boom")
		if _, err := tc.get("k", func() (*samr.Trace, error) { return nil, boom }, noModel); !errors.Is(err, boom) {
			t.Fatalf("first get = %v, want boom", err)
		}
		tr := &samr.Trace{Name: "k"}
		if c, err := tc.get("k", ready(tr), noModel); err != nil || c.tr != tr {
			t.Fatalf("second get = %v, %v: the failure was kept", c.tr, err)
		}
	})

	t.Run("oldest key evicted first", func(t *testing.T) {
		tc := newTraceCache()
		key := func(i int) string { return fmt.Sprint("k", i) }
		for i := 0; i <= maxCachedTraces; i++ {
			if _, err := tc.get(key(i), ready(&samr.Trace{}), noModel); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tc.get(key(1), never, noModel); err != nil {
			t.Fatal(err)
		}
		regenerated := false
		if _, err := tc.get(key(0), func() (*samr.Trace, error) {
			regenerated = true
			return &samr.Trace{}, nil
		}, noModel); err != nil || !regenerated {
			t.Fatalf("the oldest key was not evicted (%v)", err)
		}
		if len(tc.order) != maxCachedTraces || tc.order[0] != key(2) {
			t.Fatalf("cache holds %d keys from %q, want %d from %q", len(tc.order), tc.order[0], maxCachedTraces, key(2))
		}
	})
}

// stateStrategy is a checkpointable strategy that records what it restores.
type stateStrategy struct {
	core.Static
	restored []byte
}

func (s *stateStrategy) CheckpointState() ([]byte, error) { return []byte("state"), nil }
func (s *stateStrategy) RestoreState(data []byte) error   { s.restored = data; return nil }

// TestBeforeAssignKeepsCheckpointState checks that the rehearsal hook
// passes checkpoint state through to a checkpointable inner strategy and
// has none of its own around a plain one.
func TestBeforeAssignKeepsCheckpointState(t *testing.T) {
	inner := &stateStrategy{}
	hooked := BeforeAssign(inner, func() error { return nil }).(core.CheckpointableStrategy)
	if data, err := hooked.CheckpointState(); err != nil || string(data) != "state" {
		t.Fatalf("CheckpointState = %q, %v; want the inner strategy's", data, err)
	}
	if err := hooked.RestoreState([]byte("saved")); err != nil || string(inner.restored) != "saved" {
		t.Fatalf("RestoreState reached the inner strategy with %q, %v", inner.restored, err)
	}
	plain := DelayStrategy(core.Static{}, 0).(core.CheckpointableStrategy)
	if data, err := plain.CheckpointState(); data != nil || err != nil {
		t.Fatalf("plain inner strategy checkpointed %q, %v", data, err)
	}
	if err := plain.RestoreState([]byte("saved")); err != nil {
		t.Fatalf("plain inner strategy refused a restore: %v", err)
	}
}

// BenchmarkMaterializeMiss times the cold-submit path: the default
// materializer over keys it has not seen, four-snapshot 16x8x8 scenarios
// at depth 2 with the octants cycled, so that every call parses the
// spec, generates its trace and builds the trace's work models.
func BenchmarkMaterializeMiss(b *testing.B) {
	octants := []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}
	mat := DefaultMaterializer()
	b.ReportAllocs()
	for i := range b.N {
		sc := fmt.Sprintf("name=tiny;dims=16x8x8;depth=2;seed=%d;%s:4", i, octants[i%len(octants)])
		if _, err := mat(WireSpec{Scenario: sc, Strategy: "adaptive", Procs: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
