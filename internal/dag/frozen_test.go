package dag

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMakespan is the reference slice-of-slices longest-path recurrence
// the frozen kernel must reproduce bit for bit.
func naiveMakespan(g *Graph, weights []float64) float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
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

// shuffledCopy returns g with task IDs permuted, so the topological order
// is not the identity and the gather/scatter paths are exercised.
func shuffledCopy(t *testing.T, g *Graph, seed int64) (*Graph, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := g.NumTasks()
	perm := rng.Perm(n) // perm[old] = shuffled id
	s := New(n)
	inv := make([]int, n)
	for old, id := range perm {
		inv[id] = old
	}
	for id := 0; id < n; id++ {
		s.MustAddTask(g.Name(inv[id]), g.Weight(inv[id]))
	}
	for old := 0; old < n; old++ {
		for _, succ := range g.Succ(old) {
			s.MustAddEdge(perm[old], perm[succ])
		}
	}
	return s, perm
}

func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	layered, err := LayeredRandom(RandomConfig{Tasks: 60, EdgeProb: 0.4, MaxLayerWidth: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fft, err := FFT(16, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"diamond":   Diamond(1, 5, 3, 2),
		"chain":     Chain(20, 0.25),
		"wavefront": Wavefront(6, 1.25),
		"fft":       fft,
		"pipeline":  Pipeline(5, 4, 0.5),
		"layered":   layered,
	}
}

func TestFrozenMatchesNaiveKernel(t *testing.T) {
	for name, g := range testGraphs(t) {
		f, err := Freeze(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := f.Makespan(), naiveMakespan(g, g.Weights()); got != want {
			t.Fatalf("%s: frozen makespan %v != naive %v", name, got, want)
		}
		// Perturbed weights through the PathEvaluator path.
		pe := NewPathEvaluatorFrozen(f)
		rng := rand.New(rand.NewSource(3))
		w := g.Weights()
		for trial := 0; trial < 25; trial++ {
			for i := range w {
				w[i] = g.Weight(i) * (1 + rng.Float64())
			}
			if got, want := pe.MakespanWith(w), naiveMakespan(g, w); got != want {
				t.Fatalf("%s trial %d: frozen %v != naive %v", name, trial, got, want)
			}
		}
	}
}

func TestFrozenNonIdentityOrder(t *testing.T) {
	for name, g := range testGraphs(t) {
		s, perm := shuffledCopy(t, g, 11)
		f, err := Freeze(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := f.Makespan(), naiveMakespan(s, s.Weights()); got != want {
			t.Fatalf("%s shuffled: frozen %v != naive %v", name, got, want)
		}
		// Heads/Tails must come back in task-ID order regardless of the
		// permutation: compare against the unshuffled graph via perm.
		peO, err := NewPathEvaluator(g)
		if err != nil {
			t.Fatal(err)
		}
		peS := NewPathEvaluatorFrozen(f)
		headsO, headsS := peO.Heads(), peS.Heads()
		tailsO, tailsS := peO.Tails(), peS.Tails()
		for old := 0; old < g.NumTasks(); old++ {
			if headsO[old] != headsS[perm[old]] {
				t.Fatalf("%s: head(%d) %v != shuffled head %v", name, old, headsO[old], headsS[perm[old]])
			}
			if tailsO[old] != tailsS[perm[old]] {
				t.Fatalf("%s: tail(%d) %v != shuffled tail %v", name, old, tailsO[old], tailsS[perm[old]])
			}
		}
	}
}

// LongestFrom rows are indexed by topo position; on non-identity graphs
// they must still agree with the task-ID longestPathBetween oracle.
func TestLongestFromNonIdentityOrder(t *testing.T) {
	for name, g := range testGraphs(t) {
		s, _ := shuffledCopy(t, g, 19)
		f, err := Freeze(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.identity {
			t.Fatalf("%s: shuffled copy kept the identity order", name)
		}
		checkLongestFrom(t, s)
	}
}

func TestFrozenGatherScatterRoundTrip(t *testing.T) {
	g := Wavefront(5, 1)
	s, _ := shuffledCopy(t, g, 5)
	f, err := Freeze(s)
	if err != nil {
		t.Fatal(err)
	}
	n := f.NumTasks()
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i) * 1.5
	}
	topo := f.Gather(make([]float64, n), src)
	back := f.Scatter(make([]float64, n), topo)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("roundtrip[%d] = %v want %v", i, back[i], src[i])
		}
	}
	for k := 0; k < n; k++ {
		if topo[k] != src[f.TaskID(k)] {
			t.Fatalf("gather[%d] = %v want src[%d]", k, topo[k], f.TaskID(k))
		}
		if f.Pos(f.TaskID(k)) != k {
			t.Fatalf("pos/order mismatch at %d", k)
		}
	}
}

func TestFrozenAdjacencyMirrorsGraph(t *testing.T) {
	for name, g := range testGraphs(t) {
		f, err := Freeze(g)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < f.NumTasks(); k++ {
			id := f.TaskID(k)
			preds := f.PredTopo(k)
			if len(preds) != g.InDegree(id) || f.InDegreeTopo(k) != g.InDegree(id) {
				t.Fatalf("%s: indegree mismatch at %d", name, id)
			}
			for j, p := range preds {
				if int(p) >= k {
					t.Fatalf("%s: predecessor position %d not before %d", name, p, k)
				}
				if f.TaskID(int(p)) != g.Pred(id)[j] {
					t.Fatalf("%s: pred order not preserved at task %d", name, id)
				}
			}
			succs := f.SuccTopo(k)
			if len(succs) != g.OutDegree(id) {
				t.Fatalf("%s: outdegree mismatch at %d", name, id)
			}
			for j, s := range succs {
				if int(s) <= k {
					t.Fatalf("%s: successor position %d not after %d", name, s, k)
				}
				if f.TaskID(int(s)) != g.Succ(id)[j] {
					t.Fatalf("%s: succ order not preserved at task %d", name, id)
				}
			}
		}
	}
}

func TestFrozenStaleness(t *testing.T) {
	g := Chain(3)
	f, err := Freeze(g)
	if err != nil {
		t.Fatal(err)
	}
	if !f.UpToDate() {
		t.Fatal("fresh snapshot reported stale")
	}
	d := f.Makespan()
	if err := g.SetWeight(0, 10); err != nil {
		t.Fatal(err)
	}
	if f.UpToDate() {
		t.Fatal("snapshot not invalidated by SetWeight")
	}
	if f.Makespan() != d {
		t.Fatal("stale snapshot changed its answer")
	}
	f2, err := Freeze(g)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Makespan() == d {
		t.Fatal("refreeze did not pick up the new weight")
	}
	g2 := Chain(2)
	f3, _ := Freeze(g2)
	g2.MustAddTask("x", 1)
	if f3.UpToDate() {
		t.Fatal("snapshot not invalidated by AddTask")
	}
	g3 := Chain(2)
	f4, _ := Freeze(g3)
	x := g3.MustAddTask("x", 1)
	g3.MustAddEdge(1, x)
	if f4.UpToDate() {
		t.Fatal("snapshot not invalidated by AddEdge")
	}
}

func TestFrozenRejectsCycle(t *testing.T) {
	g := New(2)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := Freeze(g); err == nil {
		t.Fatal("cycle accepted")
	}
}

// Dense construction: the per-node duplicate set must keep AddEdge O(1) on
// dense nodes and still reject duplicates and report HasEdge correctly.
func TestAddEdgeDenseDuplicates(t *testing.T) {
	const n = dupMapThreshold * 4
	g := New(n + 1)
	hub := g.MustAddTask("hub", 1)
	for i := 0; i < n; i++ {
		g.MustAddTask("t", 1)
	}
	for i := 1; i <= n; i++ {
		g.MustAddEdge(hub, i)
	}
	for i := 1; i <= n; i++ {
		if err := g.AddEdge(hub, i); err == nil {
			t.Fatalf("duplicate (0,%d) accepted", i)
		}
		if !g.HasEdge(hub, i) {
			t.Fatalf("HasEdge(0,%d) false", i)
		}
	}
	if g.HasEdge(hub, 0) || g.HasEdge(1, 2) {
		t.Fatal("phantom edge reported")
	}
	if g.NumEdges() != n {
		t.Fatalf("edges = %d want %d", g.NumEdges(), n)
	}
	// Clone drops the sets; further construction must still deduplicate.
	c := g.Clone()
	if err := c.AddEdge(hub, 1); err == nil {
		t.Fatal("clone accepted duplicate")
	}
	c.MustAddTask("extra", 1)
	c.MustAddEdge(hub, n+1)
	if err := c.AddEdge(hub, n+1); err == nil {
		t.Fatal("clone accepted duplicate after growth")
	}
}

// Regression: CriticalPath must tolerate accumulated float rounding when
// matching completion times. With weights like 0.1/0.2 the subtraction
// comp[v]−a_v does not reproduce the predecessor completion bit for bit,
// which the old exact-equality walk missed.
func TestCriticalPathAccumulatedRounding(t *testing.T) {
	g := New(8)
	// A chain of ten 0.1-weight tasks in parallel with coarser tasks whose
	// sums hit the classic 0.1+0.2 ≠ 0.3 representation gaps.
	prev := g.MustAddTask("c0", 0.1)
	first := prev
	for i := 1; i < 10; i++ {
		cur := g.MustAddTask("c", 0.1)
		g.MustAddEdge(prev, cur)
		prev = cur
	}
	a := g.MustAddTask("a", 0.2)
	b := g.MustAddTask("b", 0.3)
	end := g.MustAddTask("end", 0.3)
	g.MustAddEdge(first, a)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, end)
	g.MustAddEdge(prev, end)

	pe, err := NewPathEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	path, d := pe.CriticalPath()
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	// The path must be a real graph path starting at a source and ending
	// at a sink, and its weight sum must reach the makespan within eps.
	if g.InDegree(path[0]) != 0 {
		t.Fatalf("path starts mid-graph at %d", path[0])
	}
	if g.OutDegree(path[len(path)-1]) != 0 {
		t.Fatalf("path ends mid-graph at %d", path[len(path)-1])
	}
	sum := 0.0
	for i, v := range path {
		sum += g.Weight(v)
		if i > 0 && !g.HasEdge(path[i-1], v) {
			t.Fatalf("no edge %d->%d on returned path", path[i-1], v)
		}
	}
	if math.Abs(sum-d) > pathEps(d) {
		t.Fatalf("path sum %v != makespan %v", sum, d)
	}
}
