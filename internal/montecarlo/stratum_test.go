package montecarlo

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
)

// stratEstimator builds a stratifying estimator of the given generator
// graph at pfail, failing the test if the estimator keeps the plain
// stream.
func stratEstimator(t *testing.T, f linalg.Factorization, k int, pfail float64, cfg Config) *Estimator {
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
	if e.strat == nil {
		t.Fatalf("%s k=%d pfail %g: estimator does not stratify", f, k, pfail)
	}
	return e
}

// The exact part against brute force: under SingleRetry every failure
// set S of a small graph is enumerated, and P(K ≥ 2), E[C] and the
// decomposition E[M] = d0 + E[C] + Σ_{|S|≥2} P(S)·R(S) must hold to
// rounding. Under full re-execution P(K ≥ 2) must equal
// 1 − P(K = 0) − Σ_k P(K = 1 on k).
func TestStratumExactPartMatchesEnumeration(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: 9, EdgeProb: 0.4, MaxLayerWidth: 3}, newRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		m, err := failure.FromPfail(0.05, g.MeanWeight())
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEstimator(g, m, Config{Trials: 1, Mode: SingleRetry})
		if err != nil {
			t.Fatal(err)
		}
		st := e.strat
		if st == nil {
			t.Fatalf("seed %d: no stratum", seed)
		}
		n := len(e.base)
		w := make([]float64, n)
		comp := make([]float64, n)
		var q, eC, rest float64
		for mask := 0; mask < 1<<n; mask++ {
			p, c, size := 1.0, 0.0, 0
			for k := 0; k < n; k++ {
				w[k] = e.base[k]
				if mask&(1<<k) != 0 {
					p *= e.pfTopo[k]
					w[k] *= 2
					c += e.delta[k]
					size++
				} else {
					p *= 1 - e.pfTopo[k]
				}
			}
			eC += p * c
			if size >= 2 {
				q += p
				rest += p * (e.frozen.MakespanTopo(w, comp) - e.d0 - c)
			}
		}
		exact, err := ExactTwoState(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(e.q, q, 1e-12*q) || !almostEq(e.eC, eC, 1e-12) {
			t.Fatalf("seed %d: q %v vs %v, E[C] %v vs %v", seed, e.q, q, e.eC, eC)
		}
		if got := e.d0 + e.eC + rest; !almostEq(got, exact, 1e-12) {
			t.Fatalf("seed %d: decomposition %v vs exact %v", seed, got, exact)
		}

		full, err := NewEstimator(g, m, Config{Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		p0 := 1.0
		for _, p := range full.pfTopo {
			p0 *= 1 - p
		}
		want := 1 - p0
		for _, p := range full.pfTopo {
			want -= p0 / (1 - p) * p * (1 - p)
		}
		if !almostEq(full.q, want, 1e-12) {
			t.Fatalf("seed %d: full-reexecution q %v vs %v", seed, full.q, want)
		}
	}
}

// sampleStratum draws from the law conditioned on K ≥ 2: on a 4-task
// graph the count of every attempt pattern must match its exact
// conditional probability within 5 standard deviations, in both modes,
// and the returned control variate must be Σ (N_k − 1)·Δ_k.
func TestStratumConditionalLaw(t *testing.T) {
	g := dag.Diamond(1, 2, 1.5, 0.5)
	m := failure.Model{Lambda: 0.08}
	const draws = 200000
	for _, mode := range []Mode{SingleRetry, FullReexecution} {
		e, err := NewEstimator(g, m, Config{Trials: 1, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if e.strat == nil {
			t.Fatalf("%v: no stratum", mode)
		}
		n := len(e.base)
		wk := e.newWorker()
		counts := map[string]int{}
		for d := 0; d < draws; d++ {
			rng := newDrawRNG(7, d)
			nfail, c := wk.sampleStratum(&rng)
			attempts := make([]int, n)
			for k := range attempts {
				attempts[k] = 1
			}
			var wantC float64
			for i, k := range wk.failPos[:nfail] {
				attempts[k] = int(math.Round(wk.failW[i] / e.base[k]))
				wantC += float64(attempts[k]-1) * e.delta[k]
			}
			if !almostEq(c, wantC, 1e-12) {
				t.Fatalf("%v: control variate %v, want %v", mode, c, wantC)
			}
			counts[fmt.Sprint(attempts)]++
		}
		// Exact conditional probabilities of every pattern with at most
		// four attempts per task.
		maxN := 2
		if mode == FullReexecution {
			maxN = 4
		}
		attempts := make([]int, n)
		var walk func(k int, p float64)
		seen := 0
		walk = func(k int, p float64) {
			if k == n {
				extra := 0
				for _, a := range attempts {
					extra += a - 1
				}
				if extra < 2 {
					return
				}
				// Counts are near Poisson: 5 SD, plus slack for patterns
				// too rare to expect a single draw.
				want := p / e.q * draws
				got := counts[fmt.Sprint(attempts)]
				seen += got
				if math.Abs(float64(got)-want) > 5*math.Sqrt(want)+3 {
					t.Fatalf("%v: pattern %v drawn %d times, want %.1f", mode, attempts, got, want)
				}
				return
			}
			pf := e.pfTopo[k]
			for a := 1; a <= maxN; a++ {
				pa := 1 - pf // P(N = a)
				if a > 1 {
					pa = math.Pow(pf, float64(a-1)) * (1 - pf)
					if mode == SingleRetry {
						pa = pf
					}
				}
				attempts[k] = a
				walk(k+1, p*pa)
			}
		}
		walk(0, 1)
		if mode == SingleRetry && seen != draws {
			t.Fatalf("%v: %d of %d draws outside the enumerated patterns", mode, draws-seen, draws)
		}
	}
}

// The stratified stream's determinism pins, in both modes: the Result
// is bit-identical for Workers 1, 2 and 4 and for the reference sampler
// and scalar kernel; an adaptive run stopping after k chunks equals a
// fixed run of k·ChunkTrials trials; extending a snapshot equals a cold
// run; and Trials reports the nominal budget.
func TestStratumDeterministic(t *testing.T) {
	for _, mode := range []Mode{FullReexecution, SingleRetry} {
		e := stratEstimator(t, linalg.FactLU, 8, 1e-3, Config{Trials: 5*chunkSize + 311, Seed: 11, Mode: mode, Workers: 1})
		ref, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if ref.Trials != 5*chunkSize+311 || ref.TrialsRun != ref.Trials {
			t.Fatalf("%v: trials %d/%d, want the nominal budget", mode, ref.Trials, ref.TrialsRun)
		}
		for _, workers := range []int{2, 4} {
			we, err := e.WithConfig(Config{Trials: 5*chunkSize + 311, Seed: 11, Mode: mode, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := we.Run(); err != nil || got != ref {
				t.Fatalf("%v: workers=%d %+v != %+v (%v)", mode, workers, got, ref, err)
			}
		}
		for _, toggle := range []func(*Estimator){
			func(x *Estimator) { x.refSampler = true },
			func(x *Estimator) { x.scalarEval = true },
		} {
			x := *e
			toggle(&x)
			if got, err := x.Run(); err != nil || got != ref {
				t.Fatalf("%v: kernel path %+v != %+v (%v)", mode, got, ref, err)
			}
		}

		// A tolerance a one-chunk run misses by a factor of four stops a
		// few chunks in.
		probe, err := e.WithConfig(Config{Trials: chunkSize, Seed: 11, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		one, err := probe.Run()
		if err != nil {
			t.Fatal(err)
		}
		tol := one.CI95 / 4
		var want Result
		for i, workers := range []int{1, 3} {
			ae, err := e.WithConfig(Config{Tolerance: tol, Seed: 11, Mode: mode, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res, snap, err := ae.ResumeAdaptive(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || res.TrialsRun < 2*chunkSize || snap.Sketch() != nil {
				t.Fatalf("%v: adaptive run %+v", mode, res)
			}
			if i == 0 {
				want = res
			} else if res != want {
				t.Fatalf("%v: workers=%d adaptive %+v != %+v", mode, workers, res, want)
			}
		}
		fe, err := e.WithConfig(Config{Trials: want.TrialsRun, Seed: 11, Mode: mode})
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
			t.Fatalf("%v: adaptive prefix %+v != fixed %+v", mode, cmp, fixed)
		}

		loose, err := e.WithConfig(Config{Tolerance: 2 * one.CI95, Seed: 11, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		_, snap1, err := loose.ResumeAdaptive(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tight, err := e.WithConfig(Config{Tolerance: tol, Seed: 11, Mode: mode, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		warm, warmSnap, err := tight.ResumeAdaptive(snap1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if warm != want || warmSnap.Chunks() <= snap1.Chunks() || warmSnap.Trials() != want.TrialsRun {
			t.Fatalf("%v: warm extension %+v (%d chunks from %d) != cold %+v", mode, warm, warmSnap.Chunks(), snap1.Chunks(), want)
		}

		// The two streams' snapshots never stand in for each other.
		plain, err := e.WithConfig(Config{Tolerance: tol, Seed: 11, Mode: mode, Sketch: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := plain.ResumeAdaptive(snap1, nil); err == nil {
			t.Fatalf("%v: plain run extended a stratified snapshot", mode)
		}
		_, plainSnap, err := plain.ResumeAdaptive(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tight.SnapshotConverged(plainSnap) {
			t.Fatalf("%v: stratified run accepted a plain snapshot", mode)
		}
	}
}

// Statistical equivalence: the stratified estimate agrees with the plain
// stream (Sketch) within their joint standard error, in both modes, on
// graphs whose P(K ≥ 2) spans two orders of magnitude; its interval is
// narrower than the plain stream's uncontrolled one, z·s_M/√N.
func TestStratumMatchesPlainStream(t *testing.T) {
	for _, c := range []struct {
		f     linalg.Factorization
		k     int
		pfail float64
	}{
		{linalg.FactLU, 8, 1e-3},
		{linalg.FactQR, 6, 5e-3},
		{linalg.FactCholesky, 10, 1e-4},
	} {
		for _, mode := range []Mode{FullReexecution, SingleRetry} {
			e := stratEstimator(t, c.f, c.k, c.pfail, Config{Trials: 60000, Seed: 3, Mode: mode})
			strat, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			pe, err := e.WithConfig(Config{Trials: 60000, Seed: 3, Mode: mode, Sketch: true})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := pe.Run()
			if err != nil {
				t.Fatal(err)
			}
			joint := math.Hypot(strat.StdErr, plain.StdErr)
			if math.Abs(strat.Mean-plain.Mean) > 4*joint {
				t.Errorf("%s k=%d pfail %g %v: stratified %v, plain %v (joint SE %v)", c.f, c.k, c.pfail, mode, strat.Mean, plain.Mean, joint)
			}
			if raw := z95 * plain.StdDev / math.Sqrt(60000); strat.CI95 >= raw {
				t.Errorf("%s k=%d pfail %g %v: stratified CI %v not below the uncontrolled plain %v", c.f, c.k, c.pfail, mode, strat.CI95, raw)
			}
			if rel := math.Abs(strat.StdDev-plain.StdDev) / plain.StdDev; rel > 0.1 {
				t.Errorf("%s k=%d pfail %g %v: StdDev %v vs plain %v", c.f, c.k, c.pfail, mode, strat.StdDev, plain.StdDev)
			}
		}
	}
}

// Invariants of every run: the interval is zero only when no task can
// fail, and the mean is never below the failure-free makespan — on a
// chain, where R = M − d0 − C is zero on every draw, on random DAGs and
// on generator graphs from pfail 1e-6 to 1e-2, fixed and adaptive.
func TestStratumIntervalAndMeanInvariants(t *testing.T) {
	graphs := map[string]*dag.Graph{"chain": dag.Chain(12, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3)}
	for seed := int64(1); seed <= 3; seed++ {
		g, err := dag.ErdosRenyiDAG(dag.RandomConfig{Tasks: 40, EdgeProb: 0.1}, newRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprint("erdos", seed)] = g
	}
	lu, err := linalg.LU(6, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	graphs["lu6"] = lu
	for name, g := range graphs {
		d0, err := dag.Makespan(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, pfail := range []float64{0, 1e-6, 1e-4, 1e-2} {
			m, err := failure.FromPfail(pfail, g.MeanWeight())
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{FullReexecution, SingleRetry} {
				for seed := uint64(0); seed < 3; seed++ {
					for _, cfg := range []Config{
						{Trials: 100, Seed: seed, Mode: mode},
						{Trials: 3 * chunkSize, Seed: seed, Mode: mode},
						{Tolerance: 1e-3 * g.MeanWeight(), MaxTrials: 4 * chunkSize, Seed: seed, Mode: mode},
					} {
						res, err := Estimate(g, m, cfg)
						if err != nil {
							t.Fatal(err)
						}
						ci := res.CI95
						if cfg.Adaptive() {
							ci = res.AchievedCI
						}
						if (ci == 0) != (pfail == 0) || math.IsNaN(ci) {
							t.Errorf("%s pfail %g %v %+v: interval %v", name, pfail, mode, cfg, ci)
						}
						if !(res.Mean >= d0) || pfail == 0 && res.Mean != d0 {
							t.Errorf("%s pfail %g %v %+v: mean %v, d0 %v", name, pfail, mode, cfg, res.Mean, d0)
						}
					}
				}
			}
		}
	}
}

// Calibration gate: the reported 95% interval covers the exact expected
// makespan in at least 90% of 200 seeded runs, for fixed and adaptive
// runs, in both modes:
//   - the stratified stream at pfail 1e-2, 1e-3 and 1e-4, against
//     ExactTwoState on the 20-task Cholesky k=4 (SingleRetry) and against
//     ExactGeometric on the 10-task Cholesky k=3 (full re-execution, four
//     attempts per task, a truncation below 1e-7 of the makespan);
//   - the plain stream (Sketch) under full re-execution at pfail 0.05
//     and 0.1, against ExactGeometric on the 5-task LU k=2 at 20
//     attempts per task, and at pfail 1e-2 on Cholesky k=3. Cholesky
//     k=3 cannot serve at the high rates: within the 4M-state cap it
//     allows four attempts, whose truncation reaches 0.16 (pfail 0.05)
//     and 1.7 (pfail 0.1) of the median half-width.
//
// Every ExactGeometric truncation bound — Σ_k a_k·pf_k^A/(1 − pf_k),
// the expected work past A attempts, which bounds what lumping the
// geometric tail into the A-th attempt takes off the mean — is checked
// to stay below a tenth of the cell's median half-width.
//
// The band: with true coverage 0.95 the covered count is Binomial(200,
// 0.95), mean 190 and SD 3.1, so fewer than 180 is a 3.2σ event — a
// false-alarm probability of about 0.1% per cell and 2% over the
// eighteen cells. The uncontrolled plain stream's interval covered
// 0.855–0.925 at pfail 1e-4 on Cholesky k=3 (ROADMAP item 1), and the
// plain stream's control-variate interval without post-stratification
// (every trial a draw of R) covered 98/200 at pfail 1e-2 on the same
// graph; this gate rejects both. The controlled interval is conservative
// (its rare-interaction floor), so no upper band is imposed.
func TestCalibrationCoverage(t *testing.T) {
	const runs, minCovered = 200, 180
	lu2, err := linalg.LU(2, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	ch3, err := linalg.Cholesky(3, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	ch4, err := linalg.Cholesky(4, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		g        *dag.Graph
		mode     Mode
		attempts int // ExactGeometric's per-task cap; 0 for ExactTwoState
		sketch   bool
		pfails   []float64
	}{
		{"cholesky4", ch4, SingleRetry, 0, false, []float64{1e-2, 1e-3, 1e-4}},
		{"cholesky3", ch3, FullReexecution, 4, false, []float64{1e-2, 1e-3, 1e-4}},
		{"lu2", lu2, FullReexecution, 20, true, []float64{0.05, 0.1}},
		{"cholesky3", ch3, FullReexecution, 4, true, []float64{1e-2}},
	} {
		for _, pfail := range c.pfails {
			m, err := failure.FromPfail(pfail, c.g.MeanWeight())
			if err != nil {
				t.Fatal(err)
			}
			var exact, trunc float64
			if c.attempts == 0 {
				exact, err = ExactTwoState(c.g, m)
			} else {
				exact, err = ExactGeometric(c.g, m, c.attempts)
				for i := 0; i < c.g.NumTasks(); i++ {
					pf := m.PFail(c.g.Weight(i))
					trunc += c.g.Weight(i) * math.Pow(pf, float64(c.attempts)) / (1 - pf)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEstimator(c.g, m, Config{Trials: 1, Mode: c.mode, Workers: 1, Sketch: c.sketch})
			if err != nil {
				t.Fatal(err)
			}
			if e.stratified() == c.sketch {
				t.Fatalf("%s pfail %g: stratified %v with sketch %v", c.name, pfail, e.stratified(), c.sketch)
			}
			for _, adaptive := range []bool{false, true} {
				covered := 0
				halves := make([]float64, 0, runs)
				for seed := uint64(0); seed < runs; seed++ {
					cfg := Config{Trials: chunkSize, Seed: seed, Mode: c.mode, Workers: 1, Sketch: c.sketch}
					if adaptive {
						// A relative tolerance on the failure excess.
						cfg = Config{Tolerance: 1e-3 * (exact - e.d0), MaxTrials: 16 * chunkSize, Seed: seed, Mode: c.mode, Workers: 1, Sketch: c.sketch}
					}
					we, err := e.WithConfig(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := we.Run()
					if err != nil {
						t.Fatal(err)
					}
					half := res.CI95
					if adaptive {
						half = res.AchievedCI
					}
					halves = append(halves, half)
					if math.Abs(res.Mean-exact) <= half {
						covered++
					}
				}
				if covered < minCovered {
					t.Errorf("%s %v pfail %g adaptive %v: interval covered the exact %v in %d of %d runs, want >= %d",
						c.name, c.mode, pfail, adaptive, exact, covered, runs, minCovered)
				}
				if c.attempts > 0 {
					sort.Float64s(halves)
					if med := halves[runs/2]; !(trunc < med/10) {
						t.Errorf("%s pfail %g adaptive %v: truncation bound %v not below a tenth of the median half-width %v",
							c.name, pfail, adaptive, trunc, med)
					}
				}
			}
		}
	}
}

// BenchmarkMCVarianceCostLU12 is the cost of precision: CPU per unit of
// variance of the mean (ns/op × StdErr², reported ×10¹², lower is
// better) on LU k=12 with 100,000 nominal trials and one worker, for the
// stratified estimator and the plain stream (Sketch) at the paper's low
// pfails.
func BenchmarkMCVarianceCostLU12(b *testing.B) {
	g, err := linalg.LU(12, linalg.KernelTimes{})
	if err != nil {
		b.Fatal(err)
	}
	for _, pfail := range []float64{1e-3, 1e-4} {
		m, err := failure.FromPfail(pfail, g.MeanWeight())
		if err != nil {
			b.Fatal(err)
		}
		for _, plain := range []bool{false, true} {
			name := fmt.Sprintf("pfail=%g/stratified", pfail)
			if plain {
				name = fmt.Sprintf("pfail=%g/plain", pfail)
			}
			b.Run(name, func(b *testing.B) {
				e, err := NewEstimator(g, m, Config{Trials: 100000, Workers: 1, Seed: 1, Sketch: plain})
				if err != nil {
					b.Fatal(err)
				}
				var res Result
				for i := 0; i < b.N; i++ {
					if res, err = e.Run(); err != nil {
						b.Fatal(err)
					}
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns*res.StdErr*res.StdErr*1e12, "ns*var*1e12")
			})
		}
	}
}
