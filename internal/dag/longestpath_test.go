package dag

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakespanChain(t *testing.T) {
	g := Chain(4, 1, 2, 3, 4)
	d, err := Makespan(g)
	if err != nil {
		t.Fatal(err)
	}
	if d != 10 {
		t.Fatalf("chain makespan = %v want 10", d)
	}
}

func TestMakespanDiamond(t *testing.T) {
	g := Diamond(1, 5, 3, 2)
	d, err := Makespan(g)
	if err != nil {
		t.Fatal(err)
	}
	if d != 8 { // 1 + max(5,3) + 2
		t.Fatalf("diamond makespan = %v want 8", d)
	}
}

func TestMakespanEmptyAndSingle(t *testing.T) {
	if d, err := Makespan(New(0)); err != nil || d != 0 {
		t.Fatalf("empty: %v %v", d, err)
	}
	g := New(1)
	g.MustAddTask("solo", 3.5)
	if d, _ := Makespan(g); d != 3.5 {
		t.Fatalf("single = %v", d)
	}
}

func TestMakespanWithOverride(t *testing.T) {
	g := Diamond(1, 5, 3, 2)
	pe, err := NewPathEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	w := g.Weights()
	w[2] = 50 // boost the other branch
	if d := pe.MakespanWith(w); d != 53 {
		t.Fatalf("override makespan = %v want 53", d)
	}
	// Original untouched.
	if d := pe.Makespan(); d != 8 {
		t.Fatalf("original makespan = %v want 8", d)
	}
}

func TestMakespanWithPanicsOnBadLength(t *testing.T) {
	g := Chain(3)
	pe, _ := NewPathEvaluator(g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pe.MakespanWith([]float64{1})
}

func TestHeadsTails(t *testing.T) {
	g := Diamond(1, 5, 3, 2)
	pe, _ := NewPathEvaluator(g)
	heads := pe.Heads()
	tails := pe.Tails()
	wantHeads := []float64{1, 6, 4, 8}
	wantTails := []float64{8, 7, 5, 2}
	for i := range wantHeads {
		if heads[i] != wantHeads[i] {
			t.Errorf("head(%d) = %v want %v", i, heads[i], wantHeads[i])
		}
		if tails[i] != wantTails[i] {
			t.Errorf("tail(%d) = %v want %v", i, tails[i], wantTails[i])
		}
	}
}

// Property: for every task, head(i)+tail(i)-a_i <= d(G), with equality for
// at least one task (a critical one).
func TestQuickHeadTailInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := LayeredRandom(RandomConfig{Tasks: 25, EdgeProb: 0.4, MaxLayerWidth: 5}, rng)
		if err != nil {
			return false
		}
		pe, err := NewPathEvaluator(g)
		if err != nil {
			return false
		}
		d := pe.Makespan()
		heads := pe.Heads()
		tails := pe.Tails()
		hitsD := false
		for i := 0; i < g.NumTasks(); i++ {
			through := heads[i] + tails[i] - g.Weight(i)
			if through > d+1e-9 {
				return false
			}
			if math.Abs(through-d) < 1e-9 {
				hitsD = true
			}
		}
		return hitsD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalPath(t *testing.T) {
	g := Diamond(1, 5, 3, 2)
	pe, _ := NewPathEvaluator(g)
	path, d := pe.CriticalPath()
	if d != 8 {
		t.Fatalf("critical length = %v", d)
	}
	want := []int{0, 1, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v want %v", path, want)
		}
	}
}

func TestCriticalPathIsAPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g, _ := LayeredRandom(RandomConfig{Tasks: 30, EdgeProb: 0.3, MaxLayerWidth: 6}, rng)
		pe, _ := NewPathEvaluator(g)
		path, d := pe.CriticalPath()
		if len(path) == 0 {
			t.Fatal("empty critical path")
		}
		sum := 0.0
		for i, v := range path {
			sum += g.Weight(v)
			if i > 0 && !g.HasEdge(path[i-1], v) {
				t.Fatalf("critical path %v has a non-edge at %d", path, i)
			}
		}
		if math.Abs(sum-d) > 1e-9 {
			t.Fatalf("path length %v != makespan %v", sum, d)
		}
	}
}

// errNoPath is returned by longestPathBetween when no path exists.
var errNoPath = errors.New("dag: no path between the given tasks")

// longestPathBetween returns the length of the longest path from task u to
// task v, counting both endpoint weights, or errNoPath if v is not
// reachable from u. It walks the Graph API in task-ID space, apart from
// the Frozen kernel, and is the oracle for Frozen.LongestFrom.
func longestPathBetween(g *Graph, u, v int) (float64, error) {
	if u < 0 || u >= g.NumTasks() || v < 0 || v >= g.NumTasks() {
		return 0, ErrBadTask
	}
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	dist := make([]float64, g.NumTasks())
	for i := range dist {
		dist[i] = math.Inf(-1)
	}
	dist[u] = g.Weight(u)
	for _, x := range order {
		if math.IsInf(dist[x], -1) {
			continue
		}
		for _, s := range g.Succ(x) {
			if c := dist[x] + g.Weight(s); c > dist[s] {
				dist[s] = c
			}
		}
	}
	if math.IsInf(dist[v], -1) {
		return 0, errNoPath
	}
	return dist[v], nil
}

func TestLongestPathBetween(t *testing.T) {
	g := Diamond(1, 5, 3, 2)
	got, err := longestPathBetween(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("longest 0->3 = %v want 8", got)
	}
	if _, err := longestPathBetween(g, 1, 2); !errors.Is(err, errNoPath) {
		t.Fatalf("want errNoPath, got %v", err)
	}
	if _, err := longestPathBetween(g, -1, 2); !errors.Is(err, ErrBadTask) {
		t.Fatalf("want ErrBadTask, got %v", err)
	}
	if got, _ := longestPathBetween(g, 1, 1); got != 5 {
		t.Fatalf("self longest = %v want 5", got)
	}
}

func TestTopLevelsBottomLevels(t *testing.T) {
	g := Diamond(1, 5, 3, 2)
	tl, err := TopLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := BottomLevels(g)
	if err != nil {
		t.Fatal(err)
	}
	wantTL := []float64{0, 1, 1, 6}
	wantBL := []float64{7, 2, 2, 0}
	for i := range wantTL {
		if tl[i] != wantTL[i] {
			t.Errorf("tl(%d)=%v want %v", i, tl[i], wantTL[i])
		}
		if bl[i] != wantBL[i] {
			t.Errorf("bl(%d)=%v want %v", i, bl[i], wantBL[i])
		}
	}
}

// Property: tl(i) + a_i + bl(i) == head(i) + tail(i) - a_i (two ways of
// computing the longest path through i).
func TestQuickThroughConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := ErdosRenyiDAG(RandomConfig{Tasks: 20, EdgeProb: 0.25}, rng)
		if err != nil {
			return false
		}
		pe, _ := NewPathEvaluator(g)
		heads, tails := pe.Heads(), pe.Tails()
		through, err := CriticalPathLengths(g)
		if err != nil {
			return false
		}
		for i := 0; i < g.NumTasks(); i++ {
			alt := heads[i] + tails[i] - g.Weight(i)
			if math.Abs(alt-through[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPathEvaluatorRejectsCycle(t *testing.T) {
	g := New(2)
	a := g.MustAddTask("a", 1)
	b := g.MustAddTask("b", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := NewPathEvaluator(g); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v want ErrCycle", err)
	}
}
