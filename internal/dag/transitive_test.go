package dag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransitiveReductionRemovesShortcut(t *testing.T) {
	// a -> b -> c with the shortcut a -> c: the shortcut must go.
	g := New(3)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 1)
	c := g.MustAddTask("c", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.MustAddEdge(a, c)
	out, err := TransitiveReduction(g)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEdges() != 2 {
		t.Fatalf("edges = %d want 2", out.NumEdges())
	}
	if out.HasEdge(a, c) {
		t.Fatal("shortcut survived")
	}
	if !out.HasEdge(a, b) || !out.HasEdge(b, c) {
		t.Fatal("chain edges removed")
	}
}

func TestTransitiveReductionKeepsIrredundant(t *testing.T) {
	g := Diamond(1, 2, 3, 4)
	out, err := TransitiveReduction(g)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEdges() != g.NumEdges() {
		t.Fatalf("diamond lost edges: %d vs %d", out.NumEdges(), g.NumEdges())
	}
}

func TestTransitiveReductionRejectsCycle(t *testing.T) {
	g := New(2)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := TransitiveReduction(g); err == nil {
		t.Fatal("cycle accepted")
	}
}

// Property: reduction preserves reachability and all longest-path
// quantities, and never adds edges.
func TestQuickTransitiveReductionPreservesPaths(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := ErdosRenyiDAG(RandomConfig{Tasks: 20, EdgeProb: 0.3}, rng)
		if err != nil {
			return false
		}
		out, err := TransitiveReduction(g)
		if err != nil {
			return false
		}
		if out.NumEdges() > g.NumEdges() {
			return false
		}
		r1, err := newReachability(g)
		if err != nil {
			return false
		}
		r2, err := newReachability(out)
		if err != nil {
			return false
		}
		for u := 0; u < g.NumTasks(); u++ {
			for v := 0; v < g.NumTasks(); v++ {
				if r1.reach(u, v) != r2.reach(u, v) {
					return false
				}
			}
		}
		d1, _ := Makespan(g)
		d2, _ := Makespan(out)
		if math.Abs(d1-d2) > 1e-9 {
			return false
		}
		tl1, _ := TopLevels(g)
		tl2, _ := TopLevels(out)
		for i := range tl1 {
			if math.Abs(tl1[i]-tl2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveReductionIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, _ := ErdosRenyiDAG(RandomConfig{Tasks: 25, EdgeProb: 0.4}, rng)
	once, err := TransitiveReduction(g)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := TransitiveReduction(once)
	if err != nil {
		t.Fatal(err)
	}
	if once.NumEdges() != twice.NumEdges() {
		t.Fatalf("not idempotent: %d vs %d", once.NumEdges(), twice.NumEdges())
	}
}
