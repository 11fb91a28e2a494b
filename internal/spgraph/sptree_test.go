package spgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dag"
	"repro/internal/distribution"
	"repro/internal/failure"
	"repro/internal/linalg"
	"repro/internal/montecarlo"
)

// SPKind classifies SP-tree nodes.
type SPKind int

// SP-tree node kinds.
const (
	SPLeaf SPKind = iota // a single task
	SPSeries
	SPParallel
)

// SPNode is a node of the series-parallel decomposition tree of a task
// graph: leaves are tasks, internal nodes compose children in series
// (sequential sum) or parallel (independent max). planTree builds it as a
// second interpreter of a compiled plan's op list, and Evaluate walks it
// recursively — an evaluation independent of Plan.Run's slot arithmetic.
type SPNode struct {
	Kind     SPKind
	Task     int // valid for SPLeaf
	Children []*SPNode
	// minLeaf caches the smallest leaf task ID of the subtree. Dodin
	// duplication shares subtrees between arcs (opMove/opCopy), so the
	// "tree" reachable from an arc is really a DAG — a recursive minimum would revisit
	// shared subtrees exponentially often. Filled at construction.
	minLeaf int
}

func leafNode(task int) *SPNode {
	return &SPNode{Kind: SPLeaf, Task: task, minLeaf: task}
}

func seriesNode(a, b *SPNode) *SPNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	// Flatten nested series for canonical shape.
	var kids []*SPNode
	for _, n := range []*SPNode{a, b} {
		if n.Kind == SPSeries {
			kids = append(kids, n.Children...)
		} else {
			kids = append(kids, n)
		}
	}
	return &SPNode{Kind: SPSeries, Children: kids, minLeaf: min(a.minLeaf, b.minLeaf)}
}

func parallelNode(a, b *SPNode) *SPNode {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	var kids []*SPNode
	for _, n := range []*SPNode{a, b} {
		if n.Kind == SPParallel {
			kids = append(kids, n.Children...)
		} else {
			kids = append(kids, n)
		}
	}
	// Parallel composition is commutative; sort children by smallest leaf
	// so the decomposition is canonical regardless of reduction order.
	sort.Slice(kids, func(i, j int) bool { return kids[i].minLeaf < kids[j].minLeaf })
	return &SPNode{Kind: SPParallel, Children: kids, minLeaf: min(a.minLeaf, b.minLeaf)}
}

// String renders the tree as S(...) / P(...) / T<id> — e.g. the diamond
// 0→{1,2}→3 prints "S(T0, P(T1, T2), T3)".
func (n *SPNode) String() string {
	if n == nil {
		return "ε"
	}
	switch n.Kind {
	case SPLeaf:
		return fmt.Sprintf("T%d", n.Task)
	case SPSeries, SPParallel:
		tag := "S"
		if n.Kind == SPParallel {
			tag = "P"
		}
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = c.String()
		}
		return tag + "(" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}

// Tasks returns the leaf task IDs in tree order.
func (n *SPNode) Tasks() []int {
	var out []int
	var walk func(*SPNode)
	walk = func(m *SPNode) {
		if m == nil {
			return
		}
		if m.Kind == SPLeaf {
			out = append(out, m.Task)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// Evaluate computes the makespan distribution of the subtree under the
// 2-state model, recursively: leaves are TwoState(a_i, p_i), series
// convolve, parallel take the independent max. maxAtoms caps supports
// (<= 0 = unlimited). On a tree produced by Decompose this equals
// Plan.Run exactly (property-tested).
func (n *SPNode) Evaluate(g *dag.Graph, model failure.Model, maxAtoms int) (distribution.Discrete, error) {
	capd := func(d distribution.Discrete) distribution.Discrete {
		if maxAtoms > 0 {
			return d.Rediscretize(maxAtoms)
		}
		return d
	}
	var eval func(*SPNode) (distribution.Discrete, error)
	eval = func(m *SPNode) (distribution.Discrete, error) {
		if m == nil {
			return distribution.Point(0), nil
		}
		switch m.Kind {
		case SPLeaf:
			a := g.Weight(m.Task)
			return distribution.TwoState(a, model.PSuccess(a))
		case SPSeries, SPParallel:
			acc, err := eval(m.Children[0])
			if err != nil {
				return distribution.Discrete{}, err
			}
			for _, c := range m.Children[1:] {
				d, err := eval(c)
				if err != nil {
					return distribution.Discrete{}, err
				}
				if m.Kind == SPSeries {
					acc = capd(acc.Add(d))
				} else {
					acc = capd(acc.MaxInd(d))
				}
			}
			return acc, nil
		}
		return distribution.Discrete{}, fmt.Errorf("spgraph: bad SP node kind %d", m.Kind)
	}
	return eval(n)
}

// planTree interprets the plan's op list structurally: initial task
// arcs are leaves, zero-length arcs are nil, opAdd composes in series,
// opMax in parallel, and opMove/opCopy share the subtree. It returns the
// tree of the final arc.
func planTree(p *Plan) *SPNode {
	trees := make([]*SPNode, 0, p.nArcs)
	for _, task := range p.init {
		var n *SPNode
		if task >= 0 {
			n = leafNode(int(task))
		}
		trees = append(trees, n)
	}
	for _, op := range p.ops {
		switch op.kind {
		case opMax:
			trees[op.a] = parallelNode(trees[op.a], trees[op.b])
		case opAdd:
			trees = append(trees, seriesNode(trees[op.a], trees[op.b]))
		default: // opMove, opCopy
			trees = append(trees, trees[op.a])
		}
	}
	return trees[p.result]
}

// Decompose returns the SP decomposition tree of g, or an error if g is
// not two-terminal series-parallel. An empty graph decomposes to nil.
func Decompose(g *dag.Graph) (*SPNode, error) {
	plan, err := Compile(g, 0)
	if err != nil {
		return nil, err
	}
	if d := plan.Stats().Duplications; d != 0 {
		return nil, fmt.Errorf("spgraph: graph is not series-parallel (%d duplications)", d)
	}
	return planTree(plan), nil
}

func TestDecomposeChain(t *testing.T) {
	g := dag.Chain(3, 1)
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.String(); got != "S(T0, T1, T2)" {
		t.Fatalf("chain tree = %s", got)
	}
}

func TestDecomposeDiamond(t *testing.T) {
	g := dag.Diamond(1, 2, 3, 4)
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.String(); got != "S(T0, P(T1, T2), T3)" {
		t.Fatalf("diamond tree = %s", got)
	}
	tasks := tree.Tasks()
	if len(tasks) != 4 {
		t.Fatalf("leaf count = %d", len(tasks))
	}
}

func TestDecomposeForkJoin(t *testing.T) {
	g := dag.ForkJoin(3, 2)
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	// Child order inside P(...) follows reduction order, so assert shape
	// rather than ordering: S(T0, P(three tasks), T4).
	if tree.Kind != SPSeries || len(tree.Children) != 3 {
		t.Fatalf("fork-join tree = %s", tree)
	}
	mid := tree.Children[1]
	if mid.Kind != SPParallel || len(mid.Children) != 3 {
		t.Fatalf("fork-join middle = %s", mid)
	}
	got := map[int]bool{}
	for _, c := range mid.Children {
		if c.Kind != SPLeaf {
			t.Fatalf("non-leaf branch %s", c)
		}
		got[c.Task] = true
	}
	if !got[1] || !got[2] || !got[3] {
		t.Fatalf("parallel branches = %v", got)
	}
}

func TestDecomposeRejectsNonSP(t *testing.T) {
	if _, err := Decompose(nGraph()); err == nil {
		t.Fatal("N graph decomposed")
	}
}

func TestDecomposeEmptyAndSingle(t *testing.T) {
	tree, err := Decompose(dag.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if tree != nil {
		t.Fatalf("empty tree = %v", tree)
	}
	single := dag.New(1)
	single.MustAddTask("solo", 2)
	tree, err = Decompose(single)
	if err != nil {
		t.Fatal(err)
	}
	if tree.String() != "T0" {
		t.Fatalf("single tree = %s", tree)
	}
}

func TestSPNodeStringNil(t *testing.T) {
	var n *SPNode
	if n.String() != "ε" {
		t.Fatalf("nil String = %q", n.String())
	}
}

func TestTreeEvaluateMatchesExactOnDiamond(t *testing.T) {
	g := dag.Diamond(1, 5, 3, 2)
	m := failure.Model{Lambda: 0.2}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tree.Evaluate(g, m, -1)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := montecarlo.ExactTwoState(g, m)
	if math.Abs(d.Mean()-exact) > 1e-9 {
		t.Fatalf("tree evaluate %v != exact %v", d.Mean(), exact)
	}
}

func TestRandomSeriesParallelIsSP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g, err := dag.RandomSeriesParallel(1+rng.Intn(40), dag.RandomConfig{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		sp, err := IsSeriesParallel(g)
		if err != nil {
			t.Fatal(err)
		}
		if !sp {
			t.Fatalf("trial %d: generated graph not SP (%d tasks)", trial, g.NumTasks())
		}
	}
}

// Property: on random SP graphs, the three independent evaluations agree —
// Dodin (Plan.Run, zero duplications), recursive tree Evaluate, and (for
// small graphs) exhaustive enumeration.
func TestQuickSPEvaluationsAgree(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + int(szRaw)%14
		g, err := dag.RandomSeriesParallel(size, dag.RandomConfig{}, rng)
		if err != nil || g.NumTasks() > montecarlo.MaxExactTasks {
			return err == nil // oversized: skip but don't fail
		}
		m := failure.Model{Lambda: 0.1}
		spRes, stats, err := Dodin(g, m, -1)
		if err != nil || stats.Duplications != 0 {
			return false
		}
		tree, err := Decompose(g)
		if err != nil {
			return false
		}
		d, err := tree.Evaluate(g, m, -1)
		if err != nil {
			return false
		}
		exact, err := montecarlo.ExactTwoState(g, m)
		if err != nil {
			return false
		}
		return math.Abs(spRes.Estimate-exact) < 1e-9 &&
			math.Abs(d.Mean()-exact) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Regression guard: Dodin duplication shares SP subtrees between arcs, so
// any per-merge operation that walks subtrees recursively (rather than
// using cached fields like minLeaf) degrades exponentially. QR at high
// pfail exercised the worst case: ~0.2 s healthy, ~17 s when the
// canonical-order sort recomputed subtree minima recursively. The guard
// covers Dodin itself and planTree over the same duplicated plan.
func TestDodinTreeSharingStaysFast(t *testing.T) {
	g, _ := linalg.QR(8, linalg.KernelTimes{})
	m, _ := failure.FromPfail(0.01, g.MeanWeight())
	start := time.Now()
	_, _, plan, err := DodinPlan(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree := planTree(plan); tree == nil {
		t.Fatal("QR k=8 plan has no tree")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Dodin on QR k=8 took %v; shared-subtree blowup regressed", elapsed)
	}
}

func TestTreeTaskCountMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := dag.RandomSeriesParallel(25, dag.RandomConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	tasks := tree.Tasks()
	if len(tasks) != g.NumTasks() {
		t.Fatalf("tree has %d leaves for %d tasks", len(tasks), g.NumTasks())
	}
	seen := make(map[int]bool)
	for _, id := range tasks {
		if seen[id] {
			t.Fatalf("task %d appears twice in the tree", id)
		}
		seen[id] = true
	}
}
