package pragma

// Benchmarks regenerating every table and figure of the paper's evaluation.
// The TableN/FigureN benchmarks run the paper-scale experiments (tens of
// seconds per iteration; run with -benchtime=1x for a single regeneration);
// the *Small variants run the reduced configurations. See EXPERIMENTS.md
// for the paper-vs-measured record.

import (
	"fmt"
	"testing"

	"github.com/pragma-grid/pragma/internal/experiments"
)

func BenchmarkTable1PerformanceFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable2OctantPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table2(); len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable3RM3DCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable4PartitionerComparison(b *testing.B) {
	cfg := experiments.DefaultTable4Config()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable4PartitionerComparisonSmall(b *testing.B) {
	cfg := experiments.SmallTable4Config()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5SystemSensitive(b *testing.B) {
	cfg := experiments.DefaultTable5Config()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable5SystemSensitiveSmall(b *testing.B) {
	cfg := experiments.SmallTable5Config()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2OctantOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFigure3ProfileViews(b *testing.B) {
	for i := 0; i < b.N; i++ {
		profiles, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if len(profiles) != 8 {
			b.Fatalf("profiles = %d", len(profiles))
		}
	}
}

func BenchmarkFigure4CapacityPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks (DESIGN.md §6) on the reduced configuration.

func BenchmarkAblationCurves(b *testing.B) {
	cfg := RM3DSmall()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCurves(cfg, 16, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSplitters(b *testing.B) {
	cfg := RM3DSmall()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSplitters(cfg, 16, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationForecasters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationForecasters(16, 400, 2002); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationProcSweep(b *testing.B) {
	cfg := RM3DSmall()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationProcSweep(cfg, []int{4, 8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCapacityWeights(b *testing.B) {
	cfg := RM3DSmall()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCapacityWeights(cfg, 8, 2002); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationManagement(b *testing.B) {
	cfg := RM3DSmall()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationManagement(cfg, 8, 2002); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRM3DTraceGeneration times the paper-scale trace generation that
// underlies Tables 3-5 and Figures 2-3.
func BenchmarkRM3DTraceGeneration(b *testing.B) {
	cfg := RM3DPaper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateRM3D(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveReplaySmall times a full adaptive replay on the reduced
// configuration — the end-to-end hot path of the public API.
func BenchmarkAdaptiveReplaySmall(b *testing.B) {
	cfg := RM3DSmall()
	trace, err := GenerateRM3D(cfg)
	if err != nil {
		b.Fatal(err)
	}
	machine := NewCluster(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Runtime{Trace: trace, Machine: machine, WorkModel: cfg.WorkModel}).Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveReplayPaper times a full replay of the paper trace
// under Adaptive() (the guarded policy) on 64, 256 and 1024 SP2
// processors: the EXPERIMENTS.md "Deciding ahead" table. -short skips
// 1024, a few seconds per run.
func BenchmarkAdaptiveReplayPaper(b *testing.B) {
	cfg := RM3DPaper()
	trace, err := GenerateRM3D(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			if procs > 256 && testing.Short() {
				b.Skip("1024 processors takes seconds per run")
			}
			rt := Runtime{Trace: trace, Machine: NewCluster(procs), WorkModel: cfg.WorkModel}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
