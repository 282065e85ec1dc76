package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/pragma-grid/pragma/internal/chaos"
	"github.com/pragma-grid/pragma/internal/cluster"
	"github.com/pragma-grid/pragma/internal/monitor"
	"github.com/pragma-grid/pragma/internal/partition"
	"github.com/pragma-grid/pragma/internal/rm3d"
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
// ablations, the agent loop, and FailureAware over each of them.
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
	// On a machine that loses no node the wrapper passes every regrid
	// through and forwards the inner strategy's state, which three
	// boundaries check.
	for _, c := range cases[:len(cases):len(cases)] {
		inner := c.strat
		c.name += "+ft"
		c.strat = func() Strategy { return &FailureAware{Inner: inner()} }
		c.every = false
		cases = append(cases, c)
	}
	// The failure ablation's configuration, on a machine that loses a
	// node mid-run, so the wrapper's own counter is state.
	return append(cases, resumeCase{"static/G-MISP+SP+ft/node-1-fails", func() Strategy {
		return &FailureAware{Inner: Static{P: partition.GMISPSP{}}}
	}, func() *cluster.Cluster {
		c := cluster.SP2(8)
		c.Fail(1, 20)
		return c
	}, 8, true})
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
			want, err := Run(tr, c.strat(), cfg())
			if err != nil {
				t.Fatal(err)
			}
			points := []int{1, n / 2, n - 1}
			if c.every {
				points = points[:0]
				for k := 1; k < n; k++ {
					points = append(points, k)
				}
			}
			for _, k := range points {
				crash := cfg()
				crash.CheckpointDir = t.TempDir()
				_, err := Run(tr, crashingStrategy{inner: c.strat(), fp: &chaos.FaultPoint{FailAt: k + 1}}, crash)
				if !errors.Is(err, chaos.ErrInjectedCrash) {
					t.Fatalf("crash entering regrid %d: err = %v", k, err)
				}
				resume := cfg()
				resume.CheckpointDir, resume.Resume = crash.CheckpointDir, true
				got, err := Run(tr, c.strat(), resume)
				if err != nil {
					t.Fatalf("resume after a crash entering regrid %d: %v", k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resume after a crash entering regrid %d: %.6f s, %d switches; uninterrupted %.6f s, %d switches",
						k, got.TotalTime, got.Switches, want.TotalTime, want.Switches)
				}
			}
		})
	}
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
		s := c.strat()
		for s != nil {
			covered[reflect.Indirect(reflect.ValueOf(s)).Type().Name()] = true
			f, ok := s.(*FailureAware)
			if !ok {
				break
			}
			s = f.Inner
		}
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
