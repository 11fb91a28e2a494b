package montecarlo

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
)

// The fused sampler's contract: with a fixed Seed, the Result is
// bit-identical for every worker count, in both re-execution modes —
// trials are chunked deterministically and the reduction folds chunks in
// index order, so scheduling cannot leak into the estimate.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g := dag.Wavefront(5, 1.5)
	m, err := failure.FromPfail(0.05, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{FullReexecution, SingleRetry} {
		// More trials than one chunk, not a multiple of the chunk size.
		base := Config{Trials: 3*chunkSize + 137, Seed: 99, Workers: 1, Mode: mode}
		ref, err := Estimate(g, m, base)
		if err != nil {
			t.Fatal(err)
		}
		if ref.StdDev == 0 {
			t.Fatalf("%v: degenerate reference run", mode)
		}
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			cfg := base
			cfg.Workers = workers
			got, err := Estimate(g, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("%v: workers=%d result %+v != workers=1 %+v", mode, workers, got, ref)
			}
		}
	}
}

// RunSamples must produce the identical sample vector for any worker
// count, and a Result identical to Run's.
func TestRunSamplesDeterministicAcrossWorkerCounts(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	m := failure.Model{Lambda: 0.2}
	cfg1 := Config{Trials: chunkSize + 59, Seed: 5, Workers: 1}
	e1, err := NewEstimator(g, m, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	res1, s1, err := e1.RunSamples()
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := cfg1
	cfg4.Workers = 4
	e4, err := NewEstimator(g, m, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	res4, s4, err := e4.RunSamples()
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res4 {
		t.Fatalf("RunSamples results differ: %+v vs %+v", res1, res4)
	}
	if s1.N() != s4.N() {
		t.Fatalf("sample counts differ")
	}
	for i := 0; i < s1.N(); i++ {
		if s1.sorted[i] != s4.sorted[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, s1.sorted[i], s4.sorted[i])
		}
	}
	// Run on a fresh estimator with the same config matches RunSamples.
	e, err := NewEstimator(g, m, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run != res1 {
		t.Fatalf("Run %+v != RunSamples %+v", run, res1)
	}
}

// The estimator is a snapshot: mutating the graph between NewEstimator
// and Run must surface ErrStaleGraph rather than silently answering
// from the stale snapshot.
func TestRunRejectsStaleGraph(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	e, err := NewEstimator(g, failure.Model{Lambda: 0.1}, Config{Trials: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(0, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != ErrStaleGraph {
		t.Fatalf("Run after mutation: err = %v, want ErrStaleGraph", err)
	}
	if _, _, err := e.RunSamples(); err != ErrStaleGraph {
		t.Fatalf("RunSamples after mutation: err = %v, want ErrStaleGraph", err)
	}
}

// A task that can never succeed must be rejected at construction under
// full re-execution (the attempt count diverges; the v1 rejection loop
// hung) — but SingleRetry stays well-defined at pf=1: every trial takes
// exactly 2a, matching v1 behavior.
func TestRejectsCertainFailure(t *testing.T) {
	g := dag.New(1)
	g.MustAddTask("doomed", 2)
	if _, err := EstimateRates(g, []float64{math.Inf(1)}, Config{Trials: 10}); err == nil {
		t.Fatal("pfail=1 accepted under full re-execution")
	}
	res, err := EstimateRates(g, []float64{1000}, Config{Trials: 500, Seed: 3, Mode: SingleRetry})
	if err != nil {
		t.Fatalf("pfail=1 rejected under SingleRetry: %v", err)
	}
	if res.Mean != 4 || res.StdDev != 0 || res.Min != 4 || res.Max != 4 {
		t.Fatalf("pf=1 SingleRetry result = %+v want constant 2a = 4", res)
	}
}

// Zero-pfail tasks take the deterministic fast path: a graph whose only
// failing task is one of many must still match the exact 2-state result.
func TestZeroPfailFastPathMixed(t *testing.T) {
	g := dag.Chain(6, 1, 2, 1, 3, 1, 2)
	rates := []float64{0, 0, 0.4, 0, 0, 0}
	exact, err := ExactTwoStateRates(g, rates)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := EstimateRates(g, rates, Config{Trials: 200000, Seed: 17, Mode: SingleRetry})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.Mean-exact) > 5*mc.CI95 {
		t.Fatalf("MC %v vs exact %v (CI %v)", mc.Mean, exact, mc.CI95)
	}
}

// The split pipeline's contract: the table-driven sampler and the lane-
// blocked batch evaluator must produce bit-identical Results and sample
// vectors to the reference per-trial paths (the v2 fused engine's
// arithmetic), across graphs, failure probabilities and modes. Tables are
// force-built so the fast sampler is exercised even where the size
// heuristic would skip it.
func TestBatchedMatchesPerTrialPaths(t *testing.T) {
	fft, err := dag.FFT(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*dag.Graph{
		"wavefront": dag.Wavefront(6, 1.5),
		"fft":       fft,
		"chain":     dag.Chain(5, 1, 2, 1, 3, 1),
		"diamond":   dag.Diamond(1, 5, 3, 2),
	}
	for name, g := range graphs {
		for _, pfail := range []float64{0.3, 0.05, 0.002} {
			m, err := failure.FromPfail(pfail, g.MeanWeight())
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{FullReexecution, SingleRetry} {
				cfg := Config{Trials: chunkSize + 333, Seed: 77, Workers: 2, Mode: mode}
				variant := func(ref, scalar bool) (Result, *Samples) {
					e, err := NewEstimator(g, m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					e.buildTables(true)
					e.refSampler, e.scalarEval = ref, scalar
					res, s, err := e.RunSamples()
					if err != nil {
						t.Fatal(err)
					}
					return res, s
				}
				wantRes, wantS := variant(true, true) // reference sampler + per-trial eval
				for _, v := range []struct {
					name        string
					ref, scalar bool
				}{
					{"fast+batched", false, false},
					{"fast+scalar", false, true},
					{"ref+batched", true, false},
				} {
					res, s := variant(v.ref, v.scalar)
					if res != wantRes {
						t.Fatalf("%s pfail=%g %v %s: Result %+v != per-trial %+v", name, pfail, mode, v.name, res, wantRes)
					}
					for i := 0; i < s.N(); i++ {
						if s.sorted[i] != wantS.sorted[i] {
							t.Fatalf("%s pfail=%g %v %s: sample %d differs", name, pfail, mode, v.name, i)
						}
					}
				}
			}
		}
	}
}

// The sampler-table size heuristic must not change results: estimators
// with and without tables agree bit for bit (the tables are exact by
// construction — this guards the construction itself).
func TestTableHeuristicInvariant(t *testing.T) {
	g, err := linalg.LU(6, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pfail := range []float64{0.2, 0.01, 0.0001} {
		m, err := failure.FromPfail(pfail, g.MeanWeight())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Trials: 6000, Seed: 5}
		eAuto, err := NewEstimator(g, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eForced, err := NewEstimator(g, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eForced.buildTables(true)
		a, err := eAuto.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := eForced.Run()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("pfail=%g: auto %+v != forced tables %+v", pfail, a, b)
		}
	}
}
