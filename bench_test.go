package makespan

// Benchmark harness: one benchmark per figure and table of the paper's
// evaluation, plus micro-benchmarks for each estimator and the ablations
// DESIGN.md calls out.
//
// The per-figure benchmarks regenerate the figure's data points (all five
// graph sizes, all three methods) against a reduced Monte Carlo ground
// truth (benchTrials trials instead of the paper's 300,000) so the full
// bench suite stays tractable; the cmd/experiments binary reproduces the
// figures at paper fidelity. Each figure benchmark reports the largest-k
// relative error of every method as custom metrics, so `go test -bench`
// output directly exhibits the paper's method ordering.

import (
	"fmt"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/distribution"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/normal"
	"repro/internal/sched"
	"repro/internal/spgraph"
)

const benchTrials = 20000

func benchFigure(b *testing.B, id int) {
	spec, err := experiments.Figure(id)
	if err != nil {
		b.Fatal(err)
	}
	var last experiments.FigureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure(spec, experiments.Options{Trials: benchTrials, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	p := last.Points[len(last.Points)-1]
	for _, m := range experiments.PaperMethods() {
		b.ReportMetric(p.RelErr[m], "relerr_"+metricName(m)+"_k12")
	}
}

func metricName(m experiments.Method) string {
	switch m {
	case experiments.MethodFirstOrder:
		return "firstorder"
	case experiments.MethodDodin:
		return "dodin"
	case experiments.MethodNormal:
		return "normal"
	case experiments.MethodSculli:
		return "sculli"
	case experiments.MethodSecondOrder:
		return "secondorder"
	}
	return string(m)
}

// Figures 4-6: Cholesky at pfail = 0.01, 0.001, 0.0001.
func BenchmarkFig04CholeskyP01(b *testing.B)   { benchFigure(b, 4) }
func BenchmarkFig05CholeskyP001(b *testing.B)  { benchFigure(b, 5) }
func BenchmarkFig06CholeskyP0001(b *testing.B) { benchFigure(b, 6) }

// Figures 7-9: LU.
func BenchmarkFig07LUP01(b *testing.B)   { benchFigure(b, 7) }
func BenchmarkFig08LUP001(b *testing.B)  { benchFigure(b, 8) }
func BenchmarkFig09LUP0001(b *testing.B) { benchFigure(b, 9) }

// Figures 10-12: QR.
func BenchmarkFig10QRP01(b *testing.B)   { benchFigure(b, 10) }
func BenchmarkFig11QRP001(b *testing.B)  { benchFigure(b, 11) }
func BenchmarkFig12QRP0001(b *testing.B) { benchFigure(b, 12) }

// Table I: LU k=20 (2,870 tasks), pfail = 0.0001 — per-method accuracy and
// runtime. The three per-method benchmarks below measure the execution
// time row; this one regenerates the normalized-difference row.
func BenchmarkTable1LU20(b *testing.B) {
	spec := experiments.Table1()
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(spec, experiments.Options{Trials: benchTrials, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	for _, m := range experiments.PaperMethods() {
		b.ReportMetric(last.Point.RelErr[m], "relerr_"+metricName(m))
	}
}

// --- Table I execution-time row: each estimator on LU k=20. ---

func table1Graph(b *testing.B) (*dag.Graph, failure.Model) {
	b.Helper()
	g, err := linalg.LU(20, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := failure.FromPfail(0.0001, g.MeanWeight())
	if err != nil {
		b.Fatal(err)
	}
	return g, m
}

func BenchmarkTable1FirstOrderLU20(b *testing.B) {
	g, m := table1Graph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FirstOrder(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1NormalLU20(b *testing.B) {
	g, m := table1Graph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := normal.CorLCA(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DodinLU20(b *testing.B) {
	g, m := table1Graph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spgraph.Dodin(g, m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// The PR-2 tentpole target: Dodin on LU k=16 (1,496 tasks), the point
// where the sort-based distribution kernel took 8.6 s. Tracked in
// BENCH_dodin.json by scripts/bench.sh.
func BenchmarkTable1DodinLU16(b *testing.B) {
	g, err := linalg.LU(16, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := failure.FromPfail(0.0001, g.MeanWeight())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spgraph.Dodin(g, m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// The distribution kernel in isolation, at Dodin's default cap: chained
// fused capped convolutions and maxima over a shared scratch, the inner
// loop of every series/parallel reduction.
func BenchmarkDistributionFusedOps(b *testing.B) {
	d, err := distribution.TwoState(1.5, 0.99)
	if err != nil {
		b.Fatal(err)
	}
	var s distribution.Scratch
	acc := d
	for i := 0; i < 40; i++ {
		acc = acc.AddCapped(d, 64, &s)
	}
	other := acc.Shift(0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := acc.AddCapped(other, 64, &s)
		_ = sum.MaxIndCapped(acc, 64, &s)
	}
}

func BenchmarkTable1MonteCarloLU20(b *testing.B) {
	g, m := table1Graph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := montecarlo.Estimate(g, m, montecarlo.Config{Trials: benchTrials, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §7): design choices quantified. ---

// Ablation 1: the O(V+E) head/tail identity vs the naive O(V(V+E))
// first-order evaluator.
func BenchmarkAblationFirstOrderFastLU12(b *testing.B) {
	g, _ := linalg.LU(12, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.001, g.MeanWeight())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FirstOrder(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFirstOrderNaiveLU12(b *testing.B) {
	g, _ := linalg.LU(12, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.001, g.MeanWeight())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FirstOrderNaive(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 2: Dodin's distribution support cap (accuracy/runtime knob).
func benchDodinAtoms(b *testing.B, atoms int) {
	g, _ := linalg.Cholesky(8, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.001, g.MeanWeight())
	var est float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := spgraph.Dodin(g, m, atoms)
		if err != nil {
			b.Fatal(err)
		}
		est = res.Estimate
	}
	b.StopTimer()
	b.ReportMetric(est, "estimate")
}

func BenchmarkAblationDodinAtoms16(b *testing.B)  { benchDodinAtoms(b, 16) }
func BenchmarkAblationDodinAtoms64(b *testing.B)  { benchDodinAtoms(b, 64) }
func BenchmarkAblationDodinAtoms256(b *testing.B) { benchDodinAtoms(b, 256) }

// Ablation 3: Monte Carlo parallel scaling.
func benchMCWorkers(b *testing.B, workers int) {
	g, _ := linalg.LU(12, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.001, g.MeanWeight())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := montecarlo.Estimate(g, m, montecarlo.Config{Trials: benchTrials, Seed: 1, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMonteCarloWorkers1(b *testing.B) { benchMCWorkers(b, 1) }
func BenchmarkAblationMonteCarloWorkers4(b *testing.B) { benchMCWorkers(b, 4) }
func BenchmarkAblationMonteCarloWorkers0(b *testing.B) { benchMCWorkers(b, 0) } // GOMAXPROCS

// Ablation 4: Sculli vs CorLCA (correlation tracking cost).
func BenchmarkAblationSculliLU20(b *testing.B) {
	g, m := table1Graph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := normal.Sculli(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

// Second order on a mid-size graph (O(V²) pairs term).
func BenchmarkSecondOrderLU12(b *testing.B) {
	g, _ := linalg.LU(12, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.001, g.MeanWeight())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SecondOrder(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

// Core substrate benchmarks: the longest-path hot loop at Monte Carlo
// scale, and the generators themselves.
func BenchmarkPathEvaluatorLU20(b *testing.B) {
	g, _ := linalg.LU(20, linalg.KernelTimes{})
	pe, err := dag.NewPathEvaluator(g)
	if err != nil {
		b.Fatal(err)
	}
	w := g.Weights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pe.MakespanWith(w)
	}
}

// The frozen CSR kernel alone: one streaming longest-path pass over
// topo-ordered weights, the per-trial floor of the Monte Carlo engine.
// Must stay at 0 allocs/op.
func BenchmarkFrozenEvalLU20(b *testing.B) {
	g, _ := linalg.LU(20, linalg.KernelTimes{})
	f, err := dag.Freeze(g)
	if err != nil {
		b.Fatal(err)
	}
	w := f.WeightsTopo()
	comp := make([]float64, f.NumTasks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.MakespanTopo(w, comp)
	}
}

// Before/after Monte Carlo kernels on the Table I workload: the fused
// single-pass sampler against the v1 two-pass reference engine
// (refMonteCarlo in parity_test.go). trials/sec is the headline
// throughput metric tracked by scripts/bench.sh.
func benchMCSampler(b *testing.B, legacy bool) {
	g, m := table1Graph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if legacy {
			_, err = refMonteCarlo(g, m, montecarlo.FullReexecution, benchTrials, 42)
		} else {
			_, err = montecarlo.Estimate(g, m, montecarlo.Config{Trials: benchTrials, Seed: 42})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkMCFusedLU20(b *testing.B)  { benchMCSampler(b, false) }
func BenchmarkMCLegacyLU20(b *testing.B) { benchMCSampler(b, true) }

// The PR-3 tentpole target: Monte Carlo at high pfail (LU k=20,
// pfail = 0.1), where ~every trial is multi-failure and takes the full
// longest-path evaluation — the regime the split-phase engine (bit-exact
// table sampler + lane-blocked SoA kernel) accelerates. Tracked in
// BENCH_sweep.json by scripts/bench.sh.
func BenchmarkMCHighPfailLU20(b *testing.B) {
	g, _ := linalg.LU(20, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.1, g.MeanWeight())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := montecarlo.Estimate(g, m, montecarlo.Config{Trials: benchTrials, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// Streaming quantile sketch vs materialize-and-sort on the same run:
// RunQuantiles answers tail-quantile questions in O(cells) memory.
func BenchmarkMCRunQuantilesLU12(b *testing.B) {
	g, _ := linalg.LU(12, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.01, g.MeanWeight())
	e, err := montecarlo.NewEstimator(g, m, montecarlo.Config{Trials: benchTrials, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunQuantiles(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCRunSamplesLU12(b *testing.B) {
	g, _ := linalg.LU(12, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.01, g.MeanWeight())
	e, err := montecarlo.NewEstimator(g, m, montecarlo.Config{Trials: benchTrials, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunSamples(); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end experiment throughput: the extension sweep (5 pfail decades ×
// 3 methods × Monte Carlo on LU k=10) through the cell scheduler with
// graph/frozen/plan caching. Tracked in BENCH_sweep.json.
func BenchmarkSweepLU10(b *testing.B) {
	spec := experiments.DefaultSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweep(spec, experiments.Options{Trials: benchTrials, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// Dodin plan replay vs the full reduction on the same graph: the sweep
// scheduler records once and replays per pfail point.
func BenchmarkDodinPlanReplayLU16(b *testing.B) {
	g, err := linalg.LU(16, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := failure.FromPfail(0.0001, g.MeanWeight())
	if err != nil {
		b.Fatal(err)
	}
	_, _, plan, err := spgraph.DodinPlan(g, m, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(m); err != nil {
			b.Fatal(err)
		}
	}
}

// Dense-graph construction: AddEdge's duplicate detection must not turn
// construction into O(E·deg). One hub layer feeding a wide layer gives
// out-degrees far past dupMapThreshold.
func BenchmarkGraphConstructionDense(b *testing.B) {
	const layers, width = 6, 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := dag.New(layers * width)
		for l := 0; l < layers; l++ {
			for j := 0; j < width; j++ {
				g.MustAddTask("t", 1)
			}
		}
		for l := 0; l < layers-1; l++ {
			for j := 0; j < width; j++ {
				for k := 0; k < width; k++ {
					g.MustAddEdge(l*width+j, (l+1)*width+k)
				}
			}
		}
		if g.NumEdges() != (layers-1)*width*width {
			b.Fatal("bad edge count")
		}
	}
}

// Ablation 5: Dodin on structured non-series-parallel families — how the
// duplication count (distance from SP) drives runtime.
func benchDodinFamily(b *testing.B, g *dag.Graph) {
	m, _ := failure.FromPfail(0.001, g.MeanWeight())
	var dups int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := spgraph.Dodin(g, m, 0)
		if err != nil {
			b.Fatal(err)
		}
		dups = stats.Duplications
	}
	b.StopTimer()
	b.ReportMetric(float64(dups), "duplications")
}

func BenchmarkAblationDodinWavefront8(b *testing.B) { benchDodinFamily(b, dag.Wavefront(8, 1)) }

func BenchmarkAblationDodinFFT16(b *testing.B) {
	g, err := dag.FFT(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchDodinFamily(b, g)
}

func BenchmarkAblationDodinPipeline6x4(b *testing.B) { benchDodinFamily(b, dag.Pipeline(6, 4, 1)) }

// Bounds: the analytic bracket on the Table I workload.
func BenchmarkBoundsBracketLU20(b *testing.B) {
	g, m := table1Graph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bounds.Bracket(g, m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// HEFT on a heterogeneous platform, plain and failure-aware.
func BenchmarkHEFTLU12(b *testing.B) {
	g, _ := linalg.LU(12, linalg.KernelTimes{})
	plat := sched.Platform{Speeds: []float64{1, 1, 2, 2}, Comm: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.HEFT(g, plat, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHEFTFailureAwareLU12(b *testing.B) {
	g, _ := linalg.LU(12, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.01, g.MeanWeight())
	plat := sched.Platform{Speeds: []float64{1, 1, 2, 2}, Comm: 0.01}
	w := sched.FailureAwareWeights(g, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.HEFT(g, plat, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerators(b *testing.B) {
	for _, f := range linalg.All() {
		b.Run(fmt.Sprintf("%s_k12", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linalg.Generate(f, 12, linalg.KernelTimes{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Adaptive stopping (PR 6 tentpole). Tracked in BENCH_adaptive.json.
//
// The pair FixedBudget/AdaptiveStop measures the trials-saved claim: both
// end with the same achieved CI on the q=0.9 makespan quantile (the
// adaptive run's tolerance IS the fixed run's achieved CI), but the
// adaptive run stops as soon as the binomial order-statistic interval
// tightens to it instead of spending the full default budget.
// The pair ColdRestart/WarmExtend measures resumable snapshots: both end
// at the tight tolerance, but the warm run extends a retained loose-
// tolerance snapshot instead of re-running its prefix.

// adaptiveBenchTolerance runs the fixed default budget once and returns
// the achieved 95% CI half-width of the q=0.9 quantile — the equal-CI
// tolerance for BenchmarkAdaptiveStopLU10.
func adaptiveBenchTolerance(b *testing.B, e *montecarlo.Estimator) float64 {
	b.Helper()
	_, sketch, err := e.RunQuantiles()
	if err != nil {
		b.Fatal(err)
	}
	lo, hi, err := sketch.QuantileCI(0.9, 0.95)
	if err != nil {
		b.Fatal(err)
	}
	return (hi - lo) / 2
}

func adaptiveBenchEstimator(b *testing.B, cfg montecarlo.Config) *montecarlo.Estimator {
	b.Helper()
	g, err := linalg.LU(10, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := failure.FromPfail(0.05, g.MeanWeight())
	if err != nil {
		b.Fatal(err)
	}
	e, err := montecarlo.NewEstimator(g, m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkAdaptiveFixedBudgetLU10(b *testing.B) {
	e := adaptiveBenchEstimator(b, montecarlo.Config{Seed: 42}) // default 300,000 trials
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunQuantiles(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(montecarlo.DefaultTrials), "trials")
}

func BenchmarkAdaptiveStopLU10(b *testing.B) {
	fixed := adaptiveBenchEstimator(b, montecarlo.Config{Seed: 42})
	tol := adaptiveBenchTolerance(b, fixed)
	e, err := fixed.WithConfig(montecarlo.Config{Seed: 42, Tolerance: tol, TargetQuantile: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	var last montecarlo.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := e.ResumeAdaptive(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if !last.Converged || last.TrialsRun*2 > montecarlo.DefaultTrials {
		b.Fatalf("adaptive run did not save >= 2x trials: %+v", last)
	}
	b.ReportMetric(float64(last.TrialsRun), "trials")
	b.ReportMetric(last.AchievedCI, "achieved_ci")
}

// adaptiveBenchTolerances derives a (loose, tight) mean-CI tolerance pair
// from fixed probes of 64 and 81 chunks: the stopping rule meets each at
// the first chunk count whose interval is that narrow, 64 and 81 — a
// warm extension of ~17 chunks vs a cold 81. (The control-variate
// interval does not decay as CI_1/√n over the first chunks, so a
// one-chunk probe cannot place them.)
func adaptiveBenchTolerances(b *testing.B, fixed *montecarlo.Estimator) (loose, tight float64) {
	b.Helper()
	ci := func(chunks int) float64 {
		probe, err := fixed.WithConfig(montecarlo.Config{Trials: chunks * montecarlo.ChunkTrials, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		res, err := probe.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.CI95
	}
	return ci(64), ci(81)
}

func BenchmarkAdaptiveColdRestartLU10(b *testing.B) {
	fixed := adaptiveBenchEstimator(b, montecarlo.Config{Seed: 42})
	_, tightTol := adaptiveBenchTolerances(b, fixed)
	tight, err := fixed.WithConfig(montecarlo.Config{Seed: 42, Tolerance: tightTol})
	if err != nil {
		b.Fatal(err)
	}
	var last montecarlo.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := tight.ResumeAdaptive(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.TrialsRun), "trials")
}

func BenchmarkAdaptiveWarmExtendLU10(b *testing.B) {
	fixed := adaptiveBenchEstimator(b, montecarlo.Config{Seed: 42})
	looseTol, tightTol := adaptiveBenchTolerances(b, fixed)
	loose, err := fixed.WithConfig(montecarlo.Config{Seed: 42, Tolerance: looseTol})
	if err != nil {
		b.Fatal(err)
	}
	_, snap, err := loose.ResumeAdaptive(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	tight, err := fixed.WithConfig(montecarlo.Config{Seed: 42, Tolerance: tightTol})
	if err != nil {
		b.Fatal(err)
	}
	var last montecarlo.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := tight.ResumeAdaptive(snap, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.TrialsRun), "trials")
	b.ReportMetric(float64(last.TrialsRun-snap.Trials()), "extend_trials")
}
