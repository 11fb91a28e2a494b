package makespan

// Parity tests: the frozen CSR path must reproduce the legacy
// slice-of-slices algorithms across every estimator and graph family. The
// reference implementations below are the pre-refactor sweeps, kept
// verbatim over the public Graph adjacency API; the package code now runs
// on dag.Frozen, and the two must agree bit for bit (deterministic
// estimators) or within the joint confidence interval (Monte Carlo).

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/distribution"
	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
	"repro/internal/normal"
	"repro/internal/sched"
)

func parityGraphs(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	chol, err := linalg.Cholesky(6, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	out["cholesky6"] = chol
	lu, err := linalg.LU(6, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	out["lu6"] = lu
	qr, err := linalg.QR(5, linalg.KernelTimes{})
	if err != nil {
		t.Fatal(err)
	}
	out["qr5"] = qr
	out["wavefront6"] = dag.Wavefront(6, 1.2)
	fft, err := dag.FFT(16, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	out["fft16"] = fft
	rng := rand.New(rand.NewSource(23))
	layered, err := dag.LayeredRandom(dag.RandomConfig{Tasks: 40, EdgeProb: 0.45, MaxLayerWidth: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	out["layered40"] = layered
	return out
}

func parityModel(t *testing.T, g *dag.Graph) failure.Model {
	t.Helper()
	m, err := failure.FromPfail(0.01, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// --- legacy reference implementations (slice-of-slices) ---

func refMakespan(g *dag.Graph, weights []float64) float64 {
	order, _ := g.TopoOrder()
	comp := make([]float64, g.NumTasks())
	best := 0.0
	for _, v := range order {
		start := 0.0
		for _, p := range g.Pred(v) {
			if comp[p] > start {
				start = comp[p]
			}
		}
		comp[v] = start + weights[v]
		if comp[v] > best {
			best = comp[v]
		}
	}
	return best
}

func refHeadsTails(g *dag.Graph) (heads, tails []float64) {
	order, _ := g.TopoOrder()
	n := g.NumTasks()
	heads = make([]float64, n)
	tails = make([]float64, n)
	for _, v := range order {
		start := 0.0
		for _, p := range g.Pred(v) {
			if heads[p] > start {
				start = heads[p]
			}
		}
		heads[v] = start + g.Weight(v)
	}
	for k := n - 1; k >= 0; k-- {
		v := order[k]
		t := 0.0
		for _, s := range g.Succ(v) {
			if tails[s] > t {
				t = tails[s]
			}
		}
		tails[v] = t + g.Weight(v)
	}
	return heads, tails
}

func refTaskNormal(a float64, m failure.Model) distribution.Normal {
	p := m.PSuccess(a)
	return distribution.Normal{Mu: a * (2 - p), Sigma2: a * a * p * (1 - p)}
}

func refSculli(g *dag.Graph, m failure.Model) float64 {
	order, _ := g.TopoOrder()
	comp := make([]distribution.Normal, g.NumTasks())
	var final distribution.Normal
	have := false
	for _, v := range order {
		var start distribution.Normal
		for k, p := range g.Pred(v) {
			if k == 0 {
				start = comp[p]
			} else {
				start = distribution.ClarkMax(start, comp[p], 0)
			}
		}
		comp[v] = start.Add(refTaskNormal(g.Weight(v), m))
		if g.OutDegree(v) == 0 {
			if !have {
				final, have = comp[v], true
			} else {
				final = distribution.ClarkMax(final, comp[v], 0)
			}
		}
	}
	return final.Mu
}

func refCorLCA(g *dag.Graph, m failure.Model) float64 {
	order, _ := g.TopoOrder()
	n := g.NumTasks()
	comp := make([]distribution.Normal, n)
	parent := make([]int, n)
	depth := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	lcaVar := func(u, v int) float64 {
		for u != v {
			if u == -1 || v == -1 {
				return 0
			}
			if depth[u] >= depth[v] {
				u = parent[u]
			} else {
				v = parent[v]
			}
		}
		if u == -1 {
			return 0
		}
		return comp[u].Sigma2
	}
	rho := func(u, v int) float64 {
		su, sv := comp[u].Sigma(), comp[v].Sigma()
		if su == 0 || sv == 0 {
			return 0
		}
		r := lcaVar(u, v) / (su * sv)
		if r > 1 {
			r = 1
		} else if r < -1 {
			r = -1
		}
		return r
	}
	var final distribution.Normal
	finalRep := -1
	for _, v := range order {
		var start distribution.Normal
		rep := -1
		for k, p := range g.Pred(v) {
			if k == 0 {
				start, rep = comp[p], p
				continue
			}
			start = distribution.ClarkMax(start, comp[p], rho(rep, p))
			if comp[p].Mu > comp[rep].Mu {
				rep = p
			}
		}
		comp[v] = start.Add(refTaskNormal(g.Weight(v), m))
		parent[v] = rep
		if rep >= 0 {
			depth[v] = depth[rep] + 1
		}
		if g.OutDegree(v) == 0 {
			if finalRep == -1 {
				final, finalRep = comp[v], v
			} else {
				final = distribution.ClarkMax(final, comp[v], rho(finalRep, v))
				if comp[v].Mu > comp[finalRep].Mu {
					finalRep = v
				}
			}
		}
	}
	return final.Mu
}

func refSweepUpper(g *dag.Graph, m failure.Model, maxAtoms int) float64 {
	if maxAtoms == 0 {
		maxAtoms = 64
	}
	order, _ := g.TopoOrder()
	capd := func(d distribution.Discrete) distribution.Discrete {
		if maxAtoms > 0 {
			return d.Rediscretize(maxAtoms)
		}
		return d
	}
	comp := make([]distribution.Discrete, g.NumTasks())
	var final distribution.Discrete
	for _, v := range order {
		var start distribution.Discrete
		for k, p := range g.Pred(v) {
			if k == 0 {
				start = comp[p]
			} else {
				start = capd(start.MaxInd(comp[p]))
			}
		}
		x, err := distribution.TwoState(g.Weight(v), m.PSuccess(g.Weight(v)))
		if err != nil {
			panic(err)
		}
		if start.IsZero() {
			comp[v] = x
		} else {
			comp[v] = capd(start.Add(x))
		}
		if g.OutDegree(v) == 0 {
			if final.IsZero() {
				final = comp[v]
			} else {
				final = capd(final.MaxInd(comp[v]))
			}
		}
	}
	if final.IsZero() {
		return 0
	}
	return final.Mean()
}

func refUpwardRanks(g *dag.Graph, plat sched.Platform, weights []float64) []float64 {
	order, _ := g.TopoOrder()
	if weights == nil {
		weights = g.Weights()
	}
	mean := 0.0
	for _, s := range plat.Speeds {
		mean += s
	}
	mean /= float64(len(plat.Speeds))
	rank := make([]float64, g.NumTasks())
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		best := 0.0
		for _, s := range g.Succ(v) {
			if c := plat.Comm + rank[s]; c > best {
				best = c
			}
		}
		rank[v] = weights[v]/mean + best
	}
	return rank
}

// --- the parity assertions ---

func TestParityPathQuantities(t *testing.T) {
	for name, g := range parityGraphs(t) {
		pe, err := dag.NewPathEvaluator(g)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pe.Makespan(), refMakespan(g, g.Weights()); got != want {
			t.Fatalf("%s: makespan %v != legacy %v", name, got, want)
		}
		wantH, wantT := refHeadsTails(g)
		gotH, gotT := pe.Heads(), pe.Tails()
		for i := range wantH {
			if gotH[i] != wantH[i] || gotT[i] != wantT[i] {
				t.Fatalf("%s: head/tail mismatch at task %d", name, i)
			}
		}
		// Perturbed weight vectors through the hot path.
		rng := rand.New(rand.NewSource(int64(len(name))))
		w := g.Weights()
		for trial := 0; trial < 10; trial++ {
			for i := range w {
				w[i] = g.Weight(i) * (1 + rng.Float64())
			}
			if got, want := pe.MakespanWith(w), refMakespan(g, w); got != want {
				t.Fatalf("%s: perturbed makespan %v != legacy %v", name, got, want)
			}
		}
	}
}

func TestParityFirstOrder(t *testing.T) {
	for name, g := range parityGraphs(t) {
		m := parityModel(t, g)
		fast, err := core.FirstOrder(g, m)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := core.FirstOrderNaive(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(fast.Estimate-naive.Estimate) / naive.Estimate; rel > 1e-12 {
			t.Fatalf("%s: FirstOrder %v vs naive %v (rel %v)", name, fast.Estimate, naive.Estimate, rel)
		}
		if fast.FailureFree != naive.FailureFree {
			t.Fatalf("%s: d(G) mismatch", name)
		}
	}
}

func TestParityNormal(t *testing.T) {
	for name, g := range parityGraphs(t) {
		m := parityModel(t, g)
		sc, err := normal.Sculli(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSculli(g, m); sc.Estimate != want {
			t.Fatalf("%s: Sculli %v != legacy %v", name, sc.Estimate, want)
		}
		cl, err := normal.CorLCA(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if want := refCorLCA(g, m); cl.Estimate != want {
			t.Fatalf("%s: CorLCA %v != legacy %v", name, cl.Estimate, want)
		}
	}
}

func TestParityBounds(t *testing.T) {
	for name, g := range parityGraphs(t) {
		m := parityModel(t, g)
		hi, err := bounds.SweepUpper(g, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSweepUpper(g, m, 0); hi != want {
			t.Fatalf("%s: SweepUpper %v != legacy %v", name, hi, want)
		}
		lo, err := bounds.JensenLower(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if lo > hi {
			t.Fatalf("%s: bracket inverted [%v, %v]", name, lo, hi)
		}
	}
}

func TestParitySched(t *testing.T) {
	plat := sched.Platform{Speeds: []float64{1, 1.5, 2}, Comm: 0.05}
	for name, g := range parityGraphs(t) {
		m := parityModel(t, g)
		for _, w := range [][]float64{nil, sched.FailureAwareWeights(g, m)} {
			got, err := sched.UpwardRanks(g, plat, w)
			if err != nil {
				t.Fatal(err)
			}
			want := refUpwardRanks(g, plat, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: rank(%d) %v != legacy %v", name, i, got[i], want[i])
				}
			}
			s, err := sched.HEFT(g, plat, w)
			if err != nil {
				t.Fatal(err)
			}
			// The schedule must respect precedence and report a consistent
			// makespan (the placement loop is unchanged; ranks drive it).
			maxFinish := 0.0
			for v := 0; v < g.NumTasks(); v++ {
				if s.Finish[v] > maxFinish {
					maxFinish = s.Finish[v]
				}
				for _, p := range g.Pred(v) {
					if s.Start[v] < s.Finish[p]-1e-12 {
						t.Fatalf("%s: task %d starts before predecessor %d finishes", name, v, p)
					}
				}
			}
			if s.Makespan != maxFinish {
				t.Fatalf("%s: makespan %v != max finish %v", name, s.Makespan, maxFinish)
			}
		}
	}
}

// refMonteCarlo is the v1 Monte Carlo engine, kept as the fused
// sampler's statistical oracle: trials split over GOMAXPROCS workers,
// each with its own PCG stream, and every trial two passes — sample
// every task's attempt count by a rejection loop, then evaluate the
// longest path on the sampled weights.
func refMonteCarlo(g *dag.Graph, m failure.Model, mode montecarlo.Mode, trials int, seed uint64) (montecarlo.Result, error) {
	n := g.NumTasks()
	pfail := make([]float64, n)
	for i := range pfail {
		pfail[i] = m.PFail(g.Weight(i))
	}
	workers := min(runtime.GOMAXPROCS(0), trials)
	accs := make([]montecarlo.Welford, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		pe, err := dag.NewPathEvaluator(g)
		if err != nil {
			return montecarlo.Result{}, err
		}
		wg.Add(1)
		go func(w int, pe *dag.PathEvaluator) {
			defer wg.Done()
			rng := randv2.New(randv2.NewPCG(seed, uint64(w)+0x9e3779b97f4a7c15))
			weights := make([]float64, n)
			for t := w; t < trials; t += workers {
				for i, pf := range pfail {
					attempts := 1
					switch {
					case pf == 0:
					case mode == montecarlo.SingleRetry:
						if rng.Float64() < pf {
							attempts = 2
						}
					default:
						for rng.Float64() < pf {
							attempts++
						}
					}
					weights[i] = float64(attempts) * g.Weight(i)
				}
				accs[w].Add(pe.MakespanWith(weights))
			}
		}(w, pe)
	}
	wg.Wait()
	var total montecarlo.Welford
	for i := range accs {
		total.Merge(accs[i])
	}
	return montecarlo.Result{Mean: total.Mean(), CI95: total.CI95(), Trials: int(total.N())}, nil
}

// Monte Carlo: the fused sampler must agree with the v1 reference
// engine within the joint 95% confidence interval, in both modes.
func TestParityMonteCarloAgainstLegacy(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode montecarlo.Mode
	}{
		{"full", montecarlo.FullReexecution},
		{"single", montecarlo.SingleRetry},
	} {
		g, err := linalg.LU(6, linalg.KernelTimes{})
		if err != nil {
			t.Fatal(err)
		}
		m := parityModel(t, g)
		fused, err := montecarlo.Estimate(g, m, montecarlo.Config{Trials: 60000, Seed: 9, Mode: tc.mode})
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := refMonteCarlo(g, m, tc.mode, 60000, 9)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fused.Mean-legacy.Mean) > fused.CI95+legacy.CI95 {
			t.Fatalf("%s: fused %v vs legacy %v beyond joint CI (%v, %v)",
				tc.name, fused.Mean, legacy.Mean, fused.CI95, legacy.CI95)
		}
	}
}

func TestParitySecondOrderAndBottomLevels(t *testing.T) {
	for name, g := range parityGraphs(t) {
		m := parityModel(t, g)
		so, err := core.SecondOrder(g, m)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := core.FirstOrder(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(so.FirstOrder-fo.Estimate) / fo.Estimate; rel > 1e-12 {
			t.Fatalf("%s: SecondOrder's first-order term %v != FirstOrder %v", name, so.FirstOrder, fo.Estimate)
		}
		if so.FailureFree != fo.FailureFree {
			t.Fatalf("%s: d(G) mismatch", name)
		}
		ebl, err := core.ExpectedBottomLevels(g, m)
		if err != nil {
			t.Fatal(err)
		}
		_, tails := refHeadsTails(g)
		for i := range ebl {
			if ebl[i] < tails[i]-1e-12 {
				t.Fatalf("%s: expected bottom level %v below deterministic tail %v", name, ebl[i], tails[i])
			}
		}
	}
}
