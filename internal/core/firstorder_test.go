package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFirstOrderChainClosedForm(t *testing.T) {
	// In a chain every task is critical: d(G_i) - d(G) = a_i, so
	// E = Σa_i + λ Σ a_i².
	g := dag.Chain(4, 1, 2, 3, 4)
	m := failure.Model{Lambda: 0.01}
	res, err := FirstOrder(g, m)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 + 0.01*(1+4+9+16)
	if !almostEq(res.Estimate, want, 1e-12) {
		t.Fatalf("chain estimate = %v want %v", res.Estimate, want)
	}
	if res.FailureFree != 10 {
		t.Fatalf("failure-free = %v", res.FailureFree)
	}
	for i := 0; i < 4; i++ {
		a := g.Weight(i)
		if !almostEq(res.Contribution[i], a*a, 1e-12) {
			t.Fatalf("contribution %d = %v want %v", i, res.Contribution[i], a*a)
		}
	}
}

func TestFirstOrderDiamondHandComputed(t *testing.T) {
	// Diamond 1,5,3,2: d = 8 via the 5-branch. Doubling each task:
	// src: d+1=9 -> delta 1; mid0 (5): 13 -> 5; mid1 (3): max(8, 1+6+2)=9 -> 1;
	// snk: 10 -> 2. E = 8 + λ(1·1 + 5·5 + 3·1 + 2·2) = 8 + 33λ.
	g := dag.Diamond(1, 5, 3, 2)
	m := failure.Model{Lambda: 0.001}
	res, err := FirstOrder(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Estimate, 8+0.033, 1e-12) {
		t.Fatalf("estimate = %v want 8.033", res.Estimate)
	}
	wantContrib := []float64{1, 25, 3, 4}
	for i, w := range wantContrib {
		if !almostEq(res.Contribution[i], w, 1e-12) {
			t.Fatalf("contribution %d = %v want %v", i, res.Contribution[i], w)
		}
	}
}

func TestFirstOrderOffCriticalTaskContributesZero(t *testing.T) {
	// A very short parallel branch never affects the makespan to first
	// order.
	g := dag.Diamond(1, 10, 0.5, 2)
	res, err := FirstOrder(g, failure.Model{Lambda: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Contribution[2] != 0 {
		t.Fatalf("short branch contribution = %v want 0", res.Contribution[2])
	}
}

func TestFirstOrderZeroLambda(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	res, _ := FirstOrder(g, failure.Model{})
	if res.Estimate != res.FailureFree {
		t.Fatalf("λ=0 estimate %v != d(G) %v", res.Estimate, res.FailureFree)
	}
}

func TestFirstOrderRejectsCycle(t *testing.T) {
	g := dag.New(2)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := FirstOrder(g, failure.Model{Lambda: 0.1}); err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := FirstOrderNaive(g, failure.Model{Lambda: 0.1}); err == nil {
		t.Fatal("cycle accepted by naive")
	}
}

// Property: the O(V+E) evaluator agrees with the O(V(V+E)) oracle on
// random DAGs of several shapes.
func TestQuickFastMatchesNaive(t *testing.T) {
	f := func(seed int64, layered bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *dag.Graph
		var err error
		if layered {
			g, err = dag.LayeredRandom(dag.RandomConfig{Tasks: 40, EdgeProb: 0.35, MaxLayerWidth: 6}, rng)
		} else {
			g, err = dag.ErdosRenyiDAG(dag.RandomConfig{Tasks: 40, EdgeProb: 0.1}, rng)
		}
		if err != nil {
			return false
		}
		m := failure.Model{Lambda: 0.05}
		fast, err := FirstOrder(g, m)
		if err != nil {
			return false
		}
		naive, err := FirstOrderNaive(g, m)
		if err != nil {
			return false
		}
		if !almostEq(fast.Estimate, naive.Estimate, 1e-9) {
			return false
		}
		for i := range fast.Contribution {
			if !almostEq(fast.Contribution[i], naive.Contribution[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFastMatchesNaiveOnFactorizations(t *testing.T) {
	m := failure.Model{Lambda: 0.02}
	for _, f := range linalg.All() {
		g, err := linalg.Generate(f, 6, linalg.KernelTimes{})
		if err != nil {
			t.Fatal(err)
		}
		fast, _ := FirstOrder(g, m)
		naive, _ := FirstOrderNaive(g, m)
		if !almostEq(fast.Estimate, naive.Estimate, 1e-9) {
			t.Fatalf("%s: fast %v naive %v", f, fast.Estimate, naive.Estimate)
		}
	}
}

// Property: estimate ≥ d(G) and every contribution is non-negative and at
// most a_i·d-ish bounded (sanity).
func TestQuickFirstOrderBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: 30, EdgeProb: 0.4, MaxLayerWidth: 5}, rng)
		if err != nil {
			return false
		}
		res, err := FirstOrder(g, failure.Model{Lambda: 0.01})
		if err != nil {
			return false
		}
		if res.Estimate < res.FailureFree {
			return false
		}
		for i, c := range res.Contribution {
			if c < 0 || c > g.Weight(i)*g.Weight(i)+1e-9 {
				// d(G_i) − d(G) ≤ a_i, so c ≤ a_i².
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The defining property of a first-order approximation: the error against
// the exact 2-state expectation shrinks quadratically in λ.
func TestFirstOrderErrorIsQuadraticInLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, _ := dag.LayeredRandom(dag.RandomConfig{Tasks: 12, EdgeProb: 0.5, MaxLayerWidth: 3}, rng)
	errAt := func(lam float64) float64 {
		m := failure.Model{Lambda: lam}
		exact, err := montecarlo.ExactTwoState(g, m)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := FirstOrder(g, m)
		return math.Abs(res.Estimate - exact)
	}
	e1 := errAt(0.02)
	e2 := errAt(0.002)
	if e1 == 0 {
		t.Skip("error vanished; graph too symmetric")
	}
	ratio := e1 / e2
	// Quadratic scaling predicts ratio 100; allow generous slack.
	if ratio < 30 {
		t.Fatalf("error ratio %v; first-order error not O(λ²): e(0.02)=%v e(0.002)=%v", ratio, e1, e2)
	}
}

func TestFirstOrderWithReuse(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	pe, err := dag.NewPathEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	r1 := FirstOrderWith(pe, failure.Model{Lambda: 0.001})
	r2, _ := FirstOrder(g, failure.Model{Lambda: 0.001})
	if r1.Estimate != r2.Estimate {
		t.Fatalf("reused evaluator differs: %v vs %v", r1.Estimate, r2.Estimate)
	}
	// Different λ on the same evaluator.
	r3 := FirstOrderWith(pe, failure.Model{Lambda: 0.002})
	if !almostEq(r3.Estimate-8, 2*(r1.Estimate-8), 1e-12) {
		t.Fatalf("estimate not linear in λ: %v %v", r1.Estimate, r3.Estimate)
	}
}

// Property: FirstOrderEstimate is bit-identical to FirstOrderWith's
// estimate and to the task-order sum over the allocating Heads/Tails
// copies, on generator and Erdős–Rényi DAGs (whose topological order is
// not the task order), and allocates nothing.
func TestFirstOrderEstimateBitIdentical(t *testing.T) {
	check := func(g *dag.Graph, m failure.Model) bool {
		pe, err := dag.NewPathEvaluator(g)
		if err != nil {
			return false
		}
		heads, tails := pe.Heads(), pe.Tails()
		d := pe.Makespan()
		var sum float64
		for i := 0; i < g.NumTasks(); i++ {
			sum += g.Weight(i) * max(heads[i]+tails[i]-d, 0)
		}
		got := FirstOrderEstimate(pe, m)
		return got == d+m.Lambda*sum && got == FirstOrderWith(pe, m).Estimate
	}
	f := func(seed int64, lambda uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.ErdosRenyiDAG(dag.RandomConfig{Tasks: 60, EdgeProb: 0.08}, rng)
		if err != nil {
			return false
		}
		return check(g, failure.Model{Lambda: float64(lambda) / 1e4})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	for _, fact := range linalg.All() {
		g, err := linalg.Generate(fact, 7, linalg.KernelTimes{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := failure.FromPfail(1e-3, g.MeanWeight())
		if err != nil {
			t.Fatal(err)
		}
		if !check(g, m) {
			t.Fatalf("%s: FirstOrderEstimate differs", fact)
		}
		pe, _ := dag.NewPathEvaluator(g)
		if n := testing.AllocsPerRun(10, func() { FirstOrderEstimate(pe, m) }); n != 0 {
			t.Fatalf("%s: %v allocations per call", fact, n)
		}
	}
}
