package spgraph

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

// nGraph returns the classic non-series-parallel "N": a→c, a→d, b→d.
func nGraph() *dag.Graph {
	g := dag.New(4)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 2)
	c := g.MustAddTask("c", 3)
	d := g.MustAddTask("d", 4)
	g.MustAddEdge(a, c)
	g.MustAddEdge(a, d)
	g.MustAddEdge(b, d)
	return g
}

func TestFromDAGShape(t *testing.T) {
	g := dag.Diamond(1, 2, 3, 4)
	net, err := FromDAG(g)
	if err != nil {
		t.Fatal(err)
	}
	// 4 task arcs + 4 precedence arcs + 1 source hook + 1 sink hook.
	if net.NumArcs() != 10 {
		t.Fatalf("arcs = %d want 10", net.NumArcs())
	}
}

func TestFromDAGEmptyGraph(t *testing.T) {
	net, err := FromDAG(dag.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if net.NumArcs() != 1 {
		t.Fatalf("empty network arcs = %d want 1 (source→sink)", net.NumArcs())
	}
	res, stats, err := Dodin(dag.New(0), failure.Model{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplications != 0 {
		t.Fatalf("empty graph needed %d duplications", stats.Duplications)
	}
	if res.Estimate != 0 {
		t.Fatalf("empty estimate = %v", res.Estimate)
	}
}

func TestFromDAGRejectsCycle(t *testing.T) {
	g := dag.New(2)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := FromDAG(g); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestIsSeriesParallel(t *testing.T) {
	cases := []struct {
		name string
		g    *dag.Graph
		want bool
	}{
		{"chain", dag.Chain(5), true},
		{"diamond", dag.Diamond(1, 2, 3, 4), true},
		{"forkjoin", dag.ForkJoin(6, 1), true},
		{"single", dag.Chain(1), true},
		{"N", nGraph(), false},
	}
	for _, c := range cases {
		got, err := IsSeriesParallel(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("IsSeriesParallel(%s) = %v want %v", c.name, got, c.want)
		}
	}
}

func TestCholeskyIsNotSeriesParallel(t *testing.T) {
	// §V-F: "the DAGs that we consider are far from being series-parallel".
	g, _ := linalg.Cholesky(4, linalg.KernelTimes{})
	sp, err := IsSeriesParallel(g)
	if err != nil {
		t.Fatal(err)
	}
	if sp {
		t.Fatal("Cholesky k=4 recognized as series-parallel")
	}
}

// On a series-parallel graph Dodin needs no duplication, so uncapped it
// is the exact makespan distribution.
func TestDodinZeroDuplicationsOnSPGraphs(t *testing.T) {
	cases := []struct {
		name   string
		g      *dag.Graph
		lambda float64
	}{
		{"chain6", dag.Chain(6, 1, 2), 0.15},
		{"diamond", dag.Diamond(1, 5, 3, 2), 0.15},
		{"forkjoin4", dag.ForkJoin(4, 2), 0.15},
		{"chain5", dag.Chain(5, 1, 2), 0.1},
		{"diamond", dag.Diamond(1, 5, 3, 2), 0.2},
		{"forkjoin5", dag.ForkJoin(5, 1.0), 0.3},
	}
	for _, c := range cases {
		m := failure.Model{Lambda: c.lambda}
		res, stats, err := Dodin(c.g, m, -1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Duplications != 0 {
			t.Fatalf("%s: SP graph needed %d duplications", c.name, stats.Duplications)
		}
		exact, _ := montecarlo.ExactTwoState(c.g, m)
		if !almostEq(res.Estimate, exact, 1e-9) {
			t.Fatalf("%s λ=%g: Dodin %v != exact %v", c.name, c.lambda, res.Estimate, exact)
		}
	}
}

func TestDodinOnNGraph(t *testing.T) {
	g := nGraph()
	m := failure.Model{Lambda: 0.1}
	res, stats, err := Dodin(g, m, -1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplications == 0 {
		t.Fatal("N graph needs at least one duplication")
	}
	exact, _ := montecarlo.ExactTwoState(g, m)
	// Duplication assumes independence between duplicated subpaths; the
	// estimate is approximate but must be in the right ballpark.
	if rel := math.Abs(res.Estimate-exact) / exact; rel > 0.2 {
		t.Fatalf("Dodin rel err %v (est %v exact %v)", rel, res.Estimate, exact)
	}
	d, _ := dag.Makespan(g)
	if res.Estimate < d {
		t.Fatalf("estimate %v below failure-free %v", res.Estimate, d)
	}
}

func TestDodinOnCholesky(t *testing.T) {
	g, _ := linalg.Cholesky(4, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.01, g.MeanWeight())
	res, stats, err := Dodin(g, m, 0) // default cap
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplications == 0 {
		t.Fatal("Cholesky should need duplications")
	}
	d, _ := dag.Makespan(g)
	if res.Estimate <= 0 || math.IsNaN(res.Estimate) {
		t.Fatalf("estimate = %v", res.Estimate)
	}
	// Sanity band: within a factor of 3 of the failure-free makespan.
	if res.Estimate < d/3 || res.Estimate > 3*d {
		t.Fatalf("estimate %v wildly off failure-free %v", res.Estimate, d)
	}
}

// Property: Dodin terminates on random DAGs and lands within a loose band
// of the exact expectation (its error is the point of the paper's
// comparison, so the band is wide).
func TestQuickDodinSanity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: 12, EdgeProb: 0.5, MaxLayerWidth: 3}, rng)
		if err != nil {
			return false
		}
		m := failure.Model{Lambda: 0.05}
		res, _, err := Dodin(g, m, 0)
		if err != nil {
			return false
		}
		exact, err := montecarlo.ExactTwoState(g, m)
		if err != nil {
			return false
		}
		rel := math.Abs(res.Estimate-exact) / exact
		return rel < 0.5 && !math.IsNaN(res.Estimate)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDodinSupportCapKeepsMeanStable(t *testing.T) {
	g, _ := linalg.Cholesky(4, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.001, g.MeanWeight())
	loose, _, err := Dodin(g, m, 128)
	if err != nil {
		t.Fatal(err)
	}
	tight, _, err := Dodin(g, m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(loose.Estimate-tight.Estimate) / loose.Estimate; rel > 0.05 {
		t.Fatalf("support cap moved the estimate by %v (%v vs %v)", rel, loose.Estimate, tight.Estimate)
	}
}

func TestDodinDistributionIsProper(t *testing.T) {
	g := nGraph()
	res, _, err := Dodin(g, failure.Model{Lambda: 0.1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Distribution
	if d.IsZero() {
		t.Fatal("empty distribution")
	}
	var sum float64
	for i := 0; i < d.Len(); i++ {
		_, p := d.Atom(i)
		sum += p
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if d.Min() < 4 { // failure-free makespan of the N graph is 1+4 = 5... min path a+d = 5, but with min sampling min is d(G)=5
		t.Fatalf("support minimum %v below any path length", d.Min())
	}
}
