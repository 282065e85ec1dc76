package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/octant"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
	"github.com/pragma-grid/pragma/internal/scenario"
)

// testdata/runresult_golden.json was recorded at commit 27c6f11, before the
// regrid decision path was rebuilt (ISSUE 24), and is the bit-identity
// oracle for that rebuild: a change that claims "same decisions, same
// floats" must pass it as recorded. There is no switch that rewrites it;
// only when the file is absent does the test write one from the code under
// test, and then it fails so the new file gets looked at.
const goldenPath = "testdata/runresult_golden.json"

// goldenCase is one replay whose whole RunResult — every SnapshotStat
// included — is pinned.
type goldenCase struct {
	name   string
	trace  func(testing.TB) *samr.Trace
	strat  Strategy
	wm     func(int) samr.WorkModel
	nprocs int
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	small := rm3d.SmallConfig()
	strategies := []Strategy{Adaptive{ImbalanceGuard: 20}}
	for _, p := range partition.All() {
		strategies = append(strategies, Static{P: p})
	}
	for _, nprocs := range []int{8, 64} {
		for _, s := range strategies {
			cases = append(cases, goldenCase{
				name:   fmt.Sprintf("rm3d-small/%s/%d", s.Name(), nprocs),
				trace:  testTrace,
				strat:  s,
				wm:     small.WorkModel,
				nprocs: nprocs,
			})
		}
	}
	// One scenario per octant: the canonical witness on the corpus
	// envelope, weighed by the spec's own front work model.
	for o := octant.I; o <= octant.VIII; o++ {
		spec := scenario.Default()
		spec.Seed = 100 + int64(o)
		spec.Name = "golden-" + o.String()
		spec.Phases = []scenario.Phase{{Snapshots: 10, Drivers: []scenario.Driver{scenario.ForOctant(o)}, Expect: o}}
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("scenario/%s/16", o),
			trace: func(t testing.TB) *samr.Trace {
				tr, err := spec.Generate()
				if err != nil {
					t.Fatal(err)
				}
				return tr
			},
			strat:  Adaptive{ImbalanceGuard: 20},
			wm:     spec.WorkModel,
			nprocs: 16,
		})
	}
	return cases
}

// TestRunResultGolden pins every float of every regrid of every case. The
// benchmark harness compares a run with a reference computed by the same
// binary, so a consistent drift in the last bits would pass it; this file
// was written by different code.
func TestRunResultGolden(t *testing.T) {
	got := map[string]*RunResult{}
	for _, c := range goldenCases() {
		res, err := Run(c.trace(t), c.strat, RunConfig{
			Machine: cluster.SP2(c.nprocs), NProcs: c.nprocs, WorkModel: c.wm,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = res
	}
	raw, err := os.ReadFile(goldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		recordGolden(t, got)
		t.Fatalf("%s was missing: recorded %d cases from the code under test", goldenPath, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*RunResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, test ran %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in golden file", name)
			continue
		}
		if reflect.DeepEqual(g, w) {
			continue
		}
		if len(g.Snapshots) != len(w.Snapshots) {
			t.Errorf("%s: %d snapshots, golden has %d", name, len(g.Snapshots), len(w.Snapshots))
			continue
		}
		for i := range g.Snapshots {
			if g.Snapshots[i] != w.Snapshots[i] {
				t.Errorf("%s: regrid %d diverges from the golden record\n got %+v\nwant %+v", name, i, g.Snapshots[i], w.Snapshots[i])
				break
			}
		}
		gs, ws := *g, *w
		gs.Snapshots, ws.Snapshots = nil, nil
		if !reflect.DeepEqual(gs, ws) {
			t.Errorf("%s: totals diverge from the golden record\n got %+v\nwant %+v", name, gs, ws)
		}
	}
}

// goldenResult returns the recorded RunResult of one golden case.
func goldenResult(t *testing.T, name string) *RunResult {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]*RunResult
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatal(err)
	}
	res, ok := all[name]
	if !ok {
		t.Fatalf("%s: no golden case %q", goldenPath, name)
	}
	return res
}

// recordGolden writes one case per line. encoding/json writes the shortest
// decimal that round-trips each float64, so the file is exact.
func recordGolden(t *testing.T, got map[string]*RunResult) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, name := range names {
		raw, err := json.Marshal(got[name])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%q: %s", name, raw)
		if i < len(names)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
