package montecarlo

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
)

// plainEstimator builds an estimator of the generator graph at pfail
// whose runs take the plain stream: with sketch, even if it stratifies.
func plainEstimator(t *testing.T, f linalg.Factorization, k int, pfail float64, cfg Config) *Estimator {
	t.Helper()
	g, err := linalg.Generate(f, k, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := failure.FromPfail(pfail, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.stratified() {
		t.Fatalf("%s k=%d pfail %g %+v: runs the stratified stream", f, k, pfail, cfg)
	}
	return e
}

// The plain stream's control-variate estimate is as reproducible as its
// trials: bit-identical Results for any Workers and kernel path, an
// adaptive run equal to the fixed run of its prefix, and a warm
// extension equal to the cold run — on a graph whose P(K ≥ 2) exceeds ½
// and on a stratifying one forced onto the plain stream by a sketch, in
// both modes.
func TestPlainStreamControlDeterministic(t *testing.T) {
	for _, c := range []struct {
		f      linalg.Factorization
		k      int
		pfail  float64
		sketch bool
	}{
		{linalg.FactLU, 6, 0.08, false},
		{linalg.FactLU, 8, 1e-3, true},
	} {
		for _, mode := range []Mode{FullReexecution, SingleRetry} {
			cfg := func(c2 Config) Config { c2.Seed, c2.Mode, c2.Sketch = 5, mode, c.sketch; return c2 }
			e := plainEstimator(t, c.f, c.k, c.pfail, cfg(Config{Trials: 3*chunkSize + 211, Workers: 1}))
			ref, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ref.CI95 <= 0 || ref.Trials != 3*chunkSize+211 {
				t.Fatalf("%s k=%d %v: reference run %+v", c.f, c.k, mode, ref)
			}
			for _, workers := range []int{0, 2, 4} {
				we, err := e.WithConfig(cfg(Config{Trials: 3*chunkSize + 211, Workers: workers}))
				if err != nil {
					t.Fatal(err)
				}
				if got, err := we.Run(); err != nil || got != ref {
					t.Fatalf("%s k=%d %v: workers=%d %+v != %+v (%v)", c.f, c.k, mode, workers, got, ref, err)
				}
			}
			for _, toggle := range []func(*Estimator){
				func(x *Estimator) { x.refSampler = true },
				func(x *Estimator) { x.scalarEval = true },
			} {
				x := *e
				toggle(&x)
				if got, err := x.Run(); err != nil || got != ref {
					t.Fatalf("%s k=%d %v: kernel path %+v != %+v (%v)", c.f, c.k, mode, got, ref, err)
				}
			}

			// A tolerance a one-chunk run misses by a factor of three
			// stops a few chunks in.
			probe, err := e.WithConfig(cfg(Config{Trials: chunkSize}))
			if err != nil {
				t.Fatal(err)
			}
			one, err := probe.Run()
			if err != nil {
				t.Fatal(err)
			}
			tol := one.CI95 / 3
			var want Result
			for i, workers := range []int{1, 3} {
				ae, err := e.WithConfig(cfg(Config{Tolerance: tol, Workers: workers}))
				if err != nil {
					t.Fatal(err)
				}
				res, snap, err := ae.ResumeAdaptive(nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged || res.TrialsRun < 2*chunkSize || (snap.Sketch() != nil) != c.sketch {
					t.Fatalf("%s k=%d %v: adaptive run %+v", c.f, c.k, mode, res)
				}
				if i == 0 {
					want = res
				} else if res != want {
					t.Fatalf("%s k=%d %v: workers=%d adaptive %+v != %+v", c.f, c.k, mode, workers, res, want)
				}
			}
			fe, err := e.WithConfig(cfg(Config{Trials: want.TrialsRun}))
			if err != nil {
				t.Fatal(err)
			}
			fixed, err := fe.Run()
			if err != nil {
				t.Fatal(err)
			}
			cmp := want
			cmp.Converged, cmp.AchievedCI = false, 0
			if cmp != fixed {
				t.Fatalf("%s k=%d %v: adaptive prefix %+v != fixed %+v", c.f, c.k, mode, cmp, fixed)
			}

			loose, err := e.WithConfig(cfg(Config{Tolerance: 2 * one.CI95}))
			if err != nil {
				t.Fatal(err)
			}
			_, snap1, err := loose.ResumeAdaptive(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			tight, err := e.WithConfig(cfg(Config{Tolerance: tol, Workers: 2}))
			if err != nil {
				t.Fatal(err)
			}
			warm, warmSnap, err := tight.ResumeAdaptive(snap1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if warm != want || warmSnap.Chunks() <= snap1.Chunks() {
				t.Fatalf("%s k=%d %v: warm extension %+v (%d chunks from %d) != cold %+v", c.f, c.k, mode, warm, warmSnap.Chunks(), snap1.Chunks(), want)
			}
		}
	}
}

// The control variate moves only the mean and its interval: the plain
// stream's samples, quantiles, Min, Max and StdDev reproduce the values
// the uncontrolled engine produced, bit for bit (hashes and float bits
// recorded from it).
func TestPlainStreamSamplesPinned(t *testing.T) {
	g, err := linalg.LU(6, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pfail              float64
		single             bool
		hash, min, max, sd uint64
		q50, q90, q99      uint64
	}{
		{0.001, false, 0xbf0d6726bf4a4590, 0x4010a8f5c28f5c29, 0x401464b17e4b17e6, 0x3fb0001ee7fffffa, 0x4010a8f5c28f5c29, 0x4010a8f5c28f5c29, 0x4012880000000000},
		{0.001, true, 0xfbb0cb4e5e9f94f6, 0x4010a8f5c28f5c29, 0x401286d3a06d3a07, 0x3fb00faafd7d9d41, 0x4010a8f5c28f5c29, 0x4010a8f5c28f5c29, 0x401286d3a06d3a07},
		{0.08, false, 0xb85fe60f811614ee, 0x4010a8f5c28f5c29, 0x4021df92c5f92c61, 0x3fe5afb41d46f3d8, 0x4013980000000000, 0x4018280000000000, 0x401c480000000000},
		{0.08, true, 0x58330c839f39e892, 0x4010a8f5c28f5c29, 0x401bc1e098ead65d, 0x3fdeedd5d7045737, 0x4013380000000000, 0x4016480000000000, 0x4018c80000000000},
	} {
		mode := FullReexecution
		if c.single {
			mode = SingleRetry
		}
		m, err := failure.FromPfail(c.pfail, g.MeanWeight())
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEstimator(g, m, Config{Trials: 3*ChunkTrials + 100, Seed: 7, Mode: mode, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, s, err := e.RunSamples()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, x := range s.sorted {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
		_, sk, err := e.RunQuantiles()
		if err != nil {
			t.Fatal(err)
		}
		got := [7]uint64{h.Sum64(), math.Float64bits(res.Min), math.Float64bits(res.Max), math.Float64bits(res.StdDev),
			math.Float64bits(sk.Quantile(0.5)), math.Float64bits(sk.Quantile(0.9)), math.Float64bits(sk.Quantile(0.99))}
		want := [7]uint64{c.hash, c.min, c.max, c.sd, c.q50, c.q90, c.q99}
		if got != want {
			t.Errorf("pfail %g %v: samples hash, Min, Max, StdDev, q50/90/99 bits %#x, want %#x", c.pfail, mode, got, want)
		}
	}
}

// On a chain every failure is on the one path, so R = M − d0 − C is zero
// on every trial: the sample variance of R carries no information, and
// the interval comes from the rule-of-three floor — positive, and
// covering the exact mean Σ a_k/(1 − pf_k).
func TestPlainStreamChainIntervalFromFloor(t *testing.T) {
	g := dag.Chain(8, 1, 2, 3, 1, 2, 3, 1, 2)
	m, err := failure.FromPfail(0.1, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	var exact float64
	for i := 0; i < g.NumTasks(); i++ {
		exact += g.Weight(i) / (1 - m.PFail(g.Weight(i)))
	}
	for _, cfg := range []Config{
		{Trials: chunkSize, Seed: 1, Sketch: true},
		{Tolerance: 1e-3, MaxTrials: 4 * chunkSize, Seed: 1, Sketch: true},
	} {
		e, err := NewEstimator(g, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		half := res.CI95
		if cfg.Adaptive() {
			half = res.AchievedCI
			_, snap, err := e.ResumeAdaptive(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r := snap.acc[0]; r.N() == 0 || r.Variance() > 1e-20 {
				t.Fatalf("R over %d draws has variance %v on a chain", r.N(), r.Variance())
			}
		}
		if !(half > 0) || math.Abs(res.Mean-exact) > half {
			t.Fatalf("%+v: mean %v ± %v, exact %v", cfg, res.Mean, half, exact)
		}
	}
}

// Under SingleRetry a task that always fails (pf = 1) leaves P(K ≥ 2)
// uncomputed, and the plain stream counts every trial as a draw of R
// (q = 1): still unbiased against the exact two-state enumeration, with
// a positive interval.
func TestPlainStreamCertainFailureEveryTrialADraw(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	rates := []float64{0.2, 1000, 0.1, 0.3}
	exact, err := ExactTwoStateRates(g, rates)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 3; seed++ {
		e, err := NewEstimatorRates(g, rates, Config{Trials: 4 * chunkSize, Seed: seed, Mode: SingleRetry})
		if err != nil {
			t.Fatal(err)
		}
		if e.q != 1 || e.strat != nil {
			t.Fatalf("q %v, stratum %v: want the every-trial fallback", e.q, e.strat != nil)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !(res.CI95 > 0) || math.Abs(res.Mean-exact) > 2*res.CI95 {
			t.Fatalf("seed %d: mean %v ± %v, exact %v", seed, res.Mean, res.CI95, exact)
		}
	}
}
