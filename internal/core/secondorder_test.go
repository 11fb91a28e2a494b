package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/montecarlo"
)

func TestSecondOrderMassIsExactlyOne(t *testing.T) {
	// The λ⁰, λ¹ and λ² coefficients of the retained probability mass
	// cancel identically (see the derivation in SecondOrder's comment),
	// and the truncated per-state polynomials have degree ≤ 2, so the
	// total retained mass is exactly 1 for every λ.
	rng := rand.New(rand.NewSource(21))
	g, _ := dag.LayeredRandom(dag.RandomConfig{Tasks: 15, EdgeProb: 0.4, MaxLayerWidth: 4}, rng)
	for _, lam := range []float64{0, 0.001, 0.01, 0.1, 0.5} {
		mass := SecondOrderMass(g, failure.Model{Lambda: lam})
		if math.Abs(1-mass) > 1e-9 {
			t.Fatalf("λ=%v: retained mass %v != 1", lam, mass)
		}
	}
}

func TestSecondOrderReducesToFirstOrderAtZeroLambda(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	res, err := SecondOrder(g, failure.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != res.FailureFree || res.FirstOrder != res.FailureFree {
		t.Fatalf("λ=0: %+v", res)
	}
}

func TestSecondOrderAgreesWithEmbeddedFirstOrder(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	m := failure.Model{Lambda: 0.01}
	so, err := SecondOrder(g, m)
	if err != nil {
		t.Fatal(err)
	}
	fo, _ := FirstOrder(g, m)
	if !almostEq(so.FirstOrder, fo.Estimate, 1e-12) {
		t.Fatalf("embedded first order %v != %v", so.FirstOrder, fo.Estimate)
	}
}

func TestSecondOrderSingleTaskClosedForm(t *testing.T) {
	// One task of weight a: 2-state exact E = a(1+pfail) with
	// pfail = 1 - e^{-λa} = λa - λ²a²/2 + O(λ³).
	// Second order keeps: P0·a + P1·2a + P2·3a with the expansion above.
	g := dag.New(1)
	g.MustAddTask("solo", 2)
	lam := 0.01
	m := failure.Model{Lambda: lam}
	res, err := SecondOrder(g, m)
	if err != nil {
		t.Fatal(err)
	}
	a := 2.0
	want := (1-lam*a+lam*lam*a*a/2)*a + (lam*a-1.5*lam*lam*a*a)*2*a + lam*lam*a*a*3*a
	if !almostEq(res.Estimate, want, 1e-12) {
		t.Fatalf("single task = %v want %v", res.Estimate, want)
	}
	// Against the geometric exact expectation a·e^{λa}, the second-order
	// error must be O(λ³)·scale — tiny.
	exact := a * math.Exp(lam*a)
	if diff := math.Abs(res.Estimate - exact); diff > 1e-5 {
		t.Fatalf("vs geometric exact: diff %v", diff)
	}
}

func TestSecondOrderBeatsFirstOrderAtModerateLambda(t *testing.T) {
	// Under the full re-execution (geometric) truth, the second-order
	// estimate must be closer than the first-order one once λ is large
	// enough for λ² terms to matter.
	rng := rand.New(rand.NewSource(5))
	wins, total := 0, 0
	for trial := 0; trial < 12; trial++ {
		g, _ := dag.LayeredRandom(dag.RandomConfig{Tasks: 8, EdgeProb: 0.5, MaxLayerWidth: 3}, rng)
		m := failure.Model{Lambda: 0.05}
		exact, err := montecarlo.ExactGeometric(g, m, 5)
		if err != nil {
			t.Fatal(err)
		}
		so, err := SecondOrder(g, m)
		if err != nil {
			t.Fatal(err)
		}
		fo, _ := FirstOrder(g, m)
		errSO := math.Abs(so.Estimate - exact)
		errFO := math.Abs(fo.Estimate - exact)
		total++
		if errSO <= errFO+1e-12 {
			wins++
		}
	}
	if wins*10 < total*8 {
		t.Fatalf("second order beat first order on only %d/%d graphs", wins, total)
	}
}

// Property: second-order error vs the geometric exact expectation shrinks
// cubically in λ.
func TestSecondOrderErrorIsCubicInLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, _ := dag.LayeredRandom(dag.RandomConfig{Tasks: 8, EdgeProb: 0.5, MaxLayerWidth: 3}, rng)
	errAt := func(lam float64) float64 {
		m := failure.Model{Lambda: lam}
		exact, err := montecarlo.ExactGeometric(g, m, 6)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SecondOrder(g, m)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(res.Estimate - exact)
	}
	e1 := errAt(0.02)
	e2 := errAt(0.004)
	if e1 == 0 || e2 == 0 {
		t.Skip("error vanished")
	}
	// Cubic scaling predicts (5)³ = 125; demand at least quadratic-plus.
	if ratio := e1 / e2; ratio < 40 {
		t.Fatalf("error ratio %v too small for O(λ³): %v vs %v", ratio, e1, e2)
	}
}

func TestSecondOrderRejectsCycle(t *testing.T) {
	g := dag.New(2)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := SecondOrder(g, failure.Model{Lambda: 0.1}); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestExpectedBottomLevelsChain(t *testing.T) {
	// Chain: tail(i) = Σ_{j>=i} a_j and every downstream task is critical,
	// so E[tail(i)] = tail(i) + λ Σ_{j>=i} a_j².
	g := dag.Chain(4, 1, 2, 3, 4)
	lam := 0.01
	ebl, err := ExpectedBottomLevels(g, failure.Model{Lambda: lam})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tail, sq := 0.0, 0.0
		for j := i; j < 4; j++ {
			tail += g.Weight(j)
			sq += g.Weight(j) * g.Weight(j)
		}
		want := tail + lam*sq
		if !almostEq(ebl[i], want, 1e-12) {
			t.Fatalf("ebl[%d] = %v want %v", i, ebl[i], want)
		}
	}
}

func TestExpectedLevelsMatchFirstOrderAtExtremes(t *testing.T) {
	// For a single-source DAG, E[tail(source)] approximates the expected
	// makespan, so it must equal the First Order whole-graph estimate.
	g := dag.Diamond(1, 5, 3, 2)
	m := failure.Model{Lambda: 0.003}
	fo, _ := FirstOrder(g, m)
	ebl, err := ExpectedBottomLevels(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ebl[0], fo.Estimate, 1e-12) {
		t.Fatalf("E[tail(src)] = %v want %v", ebl[0], fo.Estimate)
	}
}

// Property: expected bottom levels dominate deterministic tails and are
// monotone along edges (a predecessor's level exceeds any successor's).
func TestQuickExpectedBottomLevelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: 20, EdgeProb: 0.4, MaxLayerWidth: 4}, rng)
		if err != nil {
			return false
		}
		m := failure.Model{Lambda: 0.02}
		ebl, err := ExpectedBottomLevels(g, m)
		if err != nil {
			return false
		}
		pe, _ := dag.NewPathEvaluator(g)
		tails := pe.Tails()
		for i := 0; i < g.NumTasks(); i++ {
			if ebl[i] < tails[i]-1e-12 {
				return false
			}
			for _, s := range g.Succ(i) {
				if ebl[i] < ebl[s]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedLevelsRejectCycle(t *testing.T) {
	g := dag.New(2)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := ExpectedBottomLevels(g, failure.Model{Lambda: 0.1}); err == nil {
		t.Fatal("cycle accepted")
	}
}
