package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
	"github.com/pragma-grid/pragma/internal/samr"
)

// resumeCase is one strategy the resume search crashes and resumes. Each
// attempt builds its strategy and machine afresh, as a restarted process
// would.
type resumeCase struct {
	name    string
	strat   func() Strategy
	machine func() *cluster.Cluster
	nprocs  int
	// every crashes entering every regrid; a strategy that carries no
	// state between regrids is crashed at three boundaries.
	every bool
}

// resumeSearchCases lists every strategy a program builds: the fleet's
// strategyByName, the facade's constructors, the experiments' tables and
// ablations, and the agent loop.
func resumeSearchCases(t *testing.T) []resumeCase {
	sp2 := func(n int) func() *cluster.Cluster { return func() *cluster.Cluster { return cluster.SP2(n) } }
	loaded := func() *cluster.Cluster { return cluster.LinuxCluster(8, 2002) }
	noisy := func() *cluster.Cluster {
		c := cluster.LinuxCluster(8, 2002)
		c.Load = noisyLoad{}
		return c
	}
	agentManaged := func(n int) func() Strategy {
		return func() Strategy {
			am, err := NewAgentManaged(n, 25)
			if err != nil {
				t.Fatal(err)
			}
			return am
		}
	}
	var cases []resumeCase
	for _, name := range []string{"SFC", "G-MISP", "G-MISP+SP", "pBD-ISP", "SP-ISP", "ISP", "EqualBlock", "Heterogeneous", "PatchGreedy"} {
		p, err := partition.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, resumeCase{"static/" + name, func() Strategy { return Static{P: p} }, sp2(8), 8, false})
	}
	cases = append(cases,
		resumeCase{"adaptive/guard-20", func() Strategy { return Adaptive{ImbalanceGuard: 20} }, sp2(8), 8, true},
		resumeCase{"adaptive/no-guard", func() Strategy { return Adaptive{} }, sp2(8), 8, true},
		resumeCase{"system-sensitive", func() Strategy { return &SystemSensitive{} }, loaded, 8, true},
		// The capacity-weight ablation's weighting changes the capacities'
		// values, not what state there is.
		resumeCase{"system-sensitive/cpu-only", func() Strategy {
			return &SystemSensitive{Weights: monitor.Weights{CPU: 1}}
		}, loaded, 8, false},
		resumeCase{"proactive", func() Strategy { return &SystemSensitive{RecalibrateEvery: 1, Forecast: true} }, noisy, 8, true},
		resumeCase{"agent-managed/8", agentManaged(8), sp2(8), 8, true},
		resumeCase{"agent-managed/32", agentManaged(32), sp2(32), 32, true},
	)
	// The failure ablation's configuration and the agent loop, on a
	// machine that loses a node mid-run, so the agent loop is handed its
	// standing assignment in survivor ids.
	failing := func() *cluster.Cluster {
		c := cluster.SP2(8)
		c.Fail(1, 20)
		return c
	}
	return append(cases,
		resumeCase{"static/G-MISP+SP/node-1-fails", func() Strategy { return Static{P: partition.GMISPSP} }, failing, 8, true},
		resumeCase{"agent-managed/8/node-1-fails", agentManaged(8), failing, 8, true},
	)
}

// TestResumeSearchEveryStrategy crashes every strategy entering regrids of
// the small trace and resumes it from its checkpoint directory: each
// resumed RunResult must equal the uninterrupted run's.
func TestResumeSearchEveryStrategy(t *testing.T) {
	tr := testTrace(t)
	n := len(tr.Snapshots)
	for _, c := range resumeSearchCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := func() RunConfig {
				return RunConfig{Machine: c.machine(), NProcs: c.nprocs, WorkModel: rm3d.SmallConfig().WorkModel}
			}
			requireResumes(t, tr, c.strat, cfg, c.points(n))
		})
	}
}

// TestResumeSearchAcrossNodeLoss runs every case of the resume search on
// its machine losing node 1 at 20 s, where Run hands the strategy the
// survivors, and crashes and resumes it as TestResumeSearchEveryStrategy
// does: the uninterrupted run must outlast the loss and finish, and each
// resumed RunResult must equal it.
func TestResumeSearchAcrossNodeLoss(t *testing.T) {
	tr := testTrace(t)
	n := len(tr.Snapshots)
	for _, c := range resumeSearchCases(t) {
		if strings.HasSuffix(c.name, "/node-1-fails") {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := func() RunConfig {
				m := c.machine()
				m.Fail(1, 20)
				return RunConfig{Machine: m, NProcs: c.nprocs, WorkModel: rm3d.SmallConfig().WorkModel}
			}
			want := requireResumes(t, tr, c.strat, cfg, c.points(n))
			if !(want.TotalTime > 20) || math.IsInf(want.TotalTime, 0) {
				t.Fatalf("uninterrupted run took %v s; want a finite run past the loss at 20 s", want.TotalTime)
			}
		})
	}
}

// points lists the regrids the resume search crashes entering for a trace
// of n snapshots.
func (c resumeCase) points(n int) []int {
	if !c.every {
		return []int{1, n / 2, n - 1}
	}
	var points []int
	for k := 1; k < n; k++ {
		points = append(points, k)
	}
	return points
}

// requireResumes runs a strategy uninterrupted, then crashes it at each of
// the points — point k before its (k+1)-th Assign call, regrid k when no
// recovery came before — and resumes it from its checkpoint directory:
// each resumed RunResult must equal the uninterrupted run's, which it
// returns.
func requireResumes(t *testing.T, tr *samr.Trace, strat func() Strategy, cfg func() RunConfig, points []int) *RunResult {
	t.Helper()
	want, err := Run(tr, strat(), cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range points {
		crash := cfg()
		crash.CheckpointDir = t.TempDir()
		_, err := Run(tr, crashingStrategy{inner: strat(), fp: &chaos.FaultPoint{FailAt: k + 1}}, crash)
		if !errors.Is(err, chaos.ErrInjectedCrash) {
			t.Fatalf("crash at point %d: err = %v", k, err)
		}
		resume := cfg()
		resume.CheckpointDir, resume.Resume = crash.CheckpointDir, true
		got, err := Run(tr, strat(), resume)
		if err != nil {
			t.Fatalf("resume after a crash at point %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resume after a crash at point %d: %.6f s, %d switches, %d recoveries; uninterrupted %.6f s, %d switches, %d recoveries",
				k, got.TotalTime, got.Switches, got.Recoveries, want.TotalTime, want.Switches, want.Recoveries)
		}
	}
	return want
}

// TestResumeSearchCoversEveryStrategy fails when a type of this package
// with an Assign(*StepContext) method is missing from the resume search,
// so a new strategy joins it.
func TestResumeSearchCoversEveryStrategy(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var defined []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Assign" || len(fn.Type.Params.List) == 0 {
				continue
			}
			if star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr); !ok || fmt.Sprint(star.X) != "StepContext" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			defined = append(defined, fmt.Sprint(recv))
		}
	}
	covered := map[string]bool{}
	for _, c := range resumeSearchCases(t) {
		covered[reflect.Indirect(reflect.ValueOf(c.strat())).Type().Name()] = true
	}
	if len(defined) == 0 {
		t.Fatal("found no strategy types; the parse is broken")
	}
	for _, name := range defined {
		if !covered[name] {
			t.Errorf("strategy type %s is missing from resumeSearchCases", name)
		}
	}
}
