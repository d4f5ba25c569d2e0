// Benchmarks that regenerate each table and figure of the paper (one
// benchmark per artifact, reporting the headline measured number as a
// custom metric), plus micro-benchmarks of the simulator core.
//
// The experiment benchmarks rebuild their inputs from scratch every
// iteration — trace synthesis included — so they measure the full
// regeneration pipeline. Trace sizes are kept small; run cmd/experiments
// with -refs 2000000 for paper-scale numbers.
package dirsim_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dirsim"
	"dirsim/internal/report"
	"dirsim/internal/trace"
	"dirsim/internal/workload"
)

const benchRefs = 60_000

// runExperiment runs and renders one paper experiment per iteration on a fresh
// context so caching never hides the simulation cost.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exps, err := report.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	e := exps[0]
	for i := 0; i < b.N; i++ {
		ctx := report.NewContext(benchRefs, 4)
		if _, err := ctx.RunExperiment(e); err != nil {
			b.Fatal(err)
		}
	}
}

// reportPerRef attaches the scheme's measured cycles/ref as a metric.
func reportPerRef(b *testing.B, scheme string) {
	b.Helper()
	ctx := report.NewContext(benchRefs, 4)
	r, err := ctx.Merged(scheme)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.PerRef("pipelined"), scheme+"_cycles/ref")
}

func BenchmarkTable3TraceCharacteristics(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4EventFrequencies(b *testing.B)     { runExperiment(b, "table4") }

func BenchmarkFigure1InvalidationHistogram(b *testing.B) {
	runExperiment(b, "fig1")
	ctx := report.NewContext(benchRefs, 4)
	r, err := ctx.Merged("Dir0B")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.InvalClean.PctAtMost(1), "pct_at_most_one")
}

func BenchmarkFigure2BusCyclesPerReference(b *testing.B) {
	runExperiment(b, "fig2")
	reportPerRef(b, "Dir0B")
	reportPerRef(b, "Dragon")
}

func BenchmarkFigure3PerTraceBusCycles(b *testing.B)    { runExperiment(b, "fig3") }
func BenchmarkTable5CycleBreakdown(b *testing.B)        { runExperiment(b, "table5") }
func BenchmarkFigure4BreakdownFractions(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFigure5CyclesPerTransaction(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkQSensitivity(b *testing.B)                { runExperiment(b, "qsens") }
func BenchmarkSpinLockImpact(b *testing.B)              { runExperiment(b, "spinlocks") }
func BenchmarkDirNNBSequentialInvalidate(b *testing.B)  { runExperiment(b, "dirnnb") }
func BenchmarkDir1BBroadcastModel(b *testing.B)         { runExperiment(b, "dir1b") }
func BenchmarkBerkeleyEstimate(b *testing.B)            { runExperiment(b, "berkeley") }
func BenchmarkPointerSweep(b *testing.B)                { runExperiment(b, "scaling") }
func BenchmarkCoarseVector(b *testing.B)                { runExperiment(b, "coarse") }
func BenchmarkStorageTable(b *testing.B)                { runExperiment(b, "storage") }
func BenchmarkFiniteCache(b *testing.B)                 { runExperiment(b, "finite") }
func BenchmarkSystemPerformance(b *testing.B)           { runExperiment(b, "sysperf") }
func BenchmarkNetworkScalability(b *testing.B)          { runExperiment(b, "network") }
func BenchmarkExtendedComparators(b *testing.B)         { runExperiment(b, "extended") }
func BenchmarkProcessMigration(b *testing.B)            { runExperiment(b, "migration") }
func BenchmarkFiniteCoherence(b *testing.B)             { runExperiment(b, "finitecoh") }
func BenchmarkBlockSizeSweep(b *testing.B)              { runExperiment(b, "blocksize") }
func BenchmarkDirectoryBandwidth(b *testing.B)          { runExperiment(b, "dirbw") }
func BenchmarkBusContention(b *testing.B)               { runExperiment(b, "contention") }
func BenchmarkExecutionDriven(b *testing.B)             { runExperiment(b, "vm") }

// Ablation benchmarks: design-choice sensitivities DESIGN.md calls out.

// BenchmarkAblationSpinBurst varies the spin-read burst length, the knob
// that sets how finely interleaved concurrent spinners are — and thereby
// how badly locks bounce under Dir1NB.
func BenchmarkAblationSpinBurst(b *testing.B) {
	for _, burst := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("burst%d", burst), func(b *testing.B) {
			prof := workload.POPSProfile()
			prof.SpinBurst = burst
			var last float64
			for i := 0; i < b.N; i++ {
				tr := workload.MustGenerate(workload.Config{
					Name: "pops", CPUs: 4, Refs: benchRefs,
					Seed: workload.SeedPOPS, Profile: prof,
				})
				res, err := dirsim.Run("Dir1NB", tr)
				if err != nil {
					b.Fatal(err)
				}
				last = res.PerRef(dirsim.PipelinedModel)
			}
			b.ReportMetric(last, "dir1nb_cycles/ref")
		})
	}
}

// BenchmarkAblationCSLength varies critical-section length at fixed lock
// demand, trading spin volume against lock-handoff frequency.
func BenchmarkAblationCSLength(b *testing.B) {
	for _, cs := range []int{10, 40, 160} {
		b.Run(fmt.Sprintf("cs%d", cs), func(b *testing.B) {
			prof := workload.POPSProfile()
			prof.CSMin, prof.CSMax = cs, cs*2
			var last float64
			for i := 0; i < b.N; i++ {
				tr := workload.MustGenerate(workload.Config{
					Name: "pops", CPUs: 4, Refs: benchRefs,
					Seed: workload.SeedPOPS, Profile: prof,
				})
				res, err := dirsim.Run("Dir0B", tr)
				if err != nil {
					b.Fatal(err)
				}
				last = res.PerRef(dirsim.PipelinedModel)
			}
			b.ReportMetric(last, "dir0b_cycles/ref")
		})
	}
}

// BenchmarkAblationPointerVictim compares DiriNB's forced-invalidation
// pressure across pointer counts on a wide machine.
func BenchmarkAblationPointerVictim(b *testing.B) {
	tr := dirsim.THOR(16, benchRefs)
	for _, i := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("ptr%d", i), func(b *testing.B) {
			var forced float64
			for n := 0; n < b.N; n++ {
				res, err := dirsim.Run(fmt.Sprintf("Dir%dNB", i), tr)
				if err != nil {
					b.Fatal(err)
				}
				forced = float64(res.ForcedInvals) / float64(res.Counts.Total) * 1000
			}
			b.ReportMetric(forced, "forced_inv/1k_refs")
		})
	}
}

// BenchmarkEngineExecutors runs an identical batch — four schemes over the
// three standard traces — through the execution engine under each
// executor. A fresh engine per iteration keeps the caches cold, so the
// parallel/sequential ratio is the genuine concurrency win on the full
// generate-and-simulate pipeline (the results are asserted bit-identical
// in internal/engine's determinism test).
func BenchmarkEngineExecutors(b *testing.B) {
	cfgs := workload.StandardConfigs(4, benchRefs)
	schemes := []string{"Dir1NB", "WTI", "Dir0B", "Dragon"}
	for _, bc := range []struct {
		name string
		exec dirsim.Executor
	}{
		{"sequential", dirsim.SequentialExecutor()},
		{"parallel", dirsim.ParallelExecutor(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := dirsim.NewEngine(dirsim.EngineOptions{})
				if _, err := eng.Compare(context.Background(), bc.exec, schemes, cfgs, false); err != nil {
					b.Fatal(err)
				}
			}
			total := float64(len(schemes) * len(cfgs) * benchRefs)
			b.ReportMetric(total*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// Micro-benchmarks ---------------------------------------------------------

// BenchmarkEngine measures raw protocol throughput: references simulated
// per second through each engine.
func BenchmarkEngine(b *testing.B) {
	tr := dirsim.POPS(4, 200_000)
	for _, scheme := range []string{"Dir1NB", "WTI", "Dir0B", "DirNNB", "Dir1B", "Dragon"} {
		b.Run(scheme, func(b *testing.B) {
			b.SetBytes(0)
			for i := 0; i < b.N; i++ {
				p, err := dirsim.NewScheme(scheme, tr.CPUs)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range tr.Refs {
					p.Access(r)
				}
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkSimulatePriced measures the full pipeline: engine plus both bus
// tallies plus histograms.
func BenchmarkSimulatePriced(b *testing.B) {
	tr := dirsim.POPS(4, 200_000)
	for i := 0; i < b.N; i++ {
		if _, err := dirsim.Run("Dir0B", tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkWorkloadGen measures trace synthesis throughput.
func BenchmarkWorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = dirsim.POPS(4, 100_000)
	}
	b.ReportMetric(float64(100_000)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkBinaryCodec measures trace serialization round trips.
func BenchmarkBinaryCodec(b *testing.B) {
	tr := dirsim.THOR(4, 100_000)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf.Len())/float64(tr.Len()), "bytes/ref")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WriteBinary(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckedRun measures the overhead of value-coherence checking.
func BenchmarkCheckedRun(b *testing.B) {
	tr := dirsim.POPS(4, 100_000)
	for i := 0; i < b.N; i++ {
		if _, err := dirsim.RunChecked("Dir0B", tr); err != nil {
			b.Fatal(err)
		}
	}
}
