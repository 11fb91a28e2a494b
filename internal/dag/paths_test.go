package dag

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// reachability is a dense successor-reachability matrix: reach(u, v)
// reports whether v is reachable from u by a non-empty directed path or
// u == v. Rows are bitsets. It is the oracle for TransitiveReduction.
type reachability struct {
	bits [][]uint64
}

// newReachability computes the reachability closure of g in O(V·E/64).
func newReachability(g *Graph) (*reachability, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumTasks()
	words := (n + 63) / 64
	bits := make([][]uint64, n)
	backing := make([]uint64, n*words)
	for i := range bits {
		bits[i] = backing[i*words : (i+1)*words]
	}
	// Process in reverse topological order: reach(u) = {u} ∪ ⋃ reach(s).
	for k := n - 1; k >= 0; k-- {
		u := order[k]
		row := bits[u]
		row[u/64] |= 1 << (uint(u) % 64)
		for _, s := range g.succ[u] {
			srow := bits[s]
			for w := range row {
				row[w] |= srow[w]
			}
		}
	}
	return &reachability{bits: bits}, nil
}

// reach reports whether v is reachable from u (u == v counts as reachable).
func (r *reachability) reach(u, v int) bool {
	return r.bits[u][v/64]&(1<<(uint(v)%64)) != 0
}

// comparable reports whether u and v lie on a common path.
func (r *reachability) comparable(u, v int) bool {
	return r.reach(u, v) || r.reach(v, u)
}

func TestReachabilityDiamond(t *testing.T) {
	g := Diamond(1, 1, 1, 1)
	r, err := newReachability(g)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 3, true}, {0, 1, true}, {0, 2, true},
		{1, 2, false}, {2, 1, false},
		{3, 0, false}, {1, 3, true}, {0, 0, true},
	}
	for _, c := range cases {
		if got := r.reach(c.u, c.v); got != c.want {
			t.Errorf("Reach(%d,%d) = %v want %v", c.u, c.v, got, c.want)
		}
	}
	if r.comparable(1, 2) {
		t.Errorf("parallel middles comparable")
	}
	if !r.comparable(0, 3) || !r.comparable(3, 0) {
		t.Errorf("source/sink should be comparable both ways")
	}
}

func TestReachabilityMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _ := ErdosRenyiDAG(RandomConfig{Tasks: 70, EdgeProb: 0.05}, rng)
	r, err := newReachability(g)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force DFS from each node.
	n := g.NumTasks()
	for u := 0; u < n; u++ {
		seen := make([]bool, n)
		stack := []int{u}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			stack = append(stack, g.Succ(x)...)
		}
		for v := 0; v < n; v++ {
			if r.reach(u, v) != seen[v] {
				t.Fatalf("Reach(%d,%d) = %v, DFS says %v", u, v, r.reach(u, v), seen[v])
			}
		}
	}
}

func TestLongestFromDiamond(t *testing.T) {
	f, err := Freeze(Diamond(1, 5, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, f.NumTasks())
	f.LongestFrom(f.Pos(0), row)
	if got := row[f.Pos(3)]; got != 8 {
		t.Errorf("0->3 = %v want 8", got)
	}
	if got := row[f.Pos(0)]; got != 1 {
		t.Errorf("0->0 = %v want 1", got)
	}
	f.LongestFrom(f.Pos(1), row)
	if got := row[f.Pos(2)]; !math.IsInf(got, -1) {
		t.Errorf("1->2 = %v want -Inf", got)
	}
	if got := row[f.Pos(0)]; !math.IsInf(got, -1) {
		t.Errorf("1->0 = %v want -Inf", got)
	}
	f.LongestFrom(f.Pos(3), row)
	if got := row[f.Pos(0)]; !math.IsInf(got, -1) {
		t.Errorf("3->0 = %v want -Inf", got)
	}
}

// checkLongestFrom compares every LongestFrom row of g, reusing one
// buffer, with the longestPathBetween oracle bit for bit.
func checkLongestFrom(t *testing.T, g *Graph) {
	t.Helper()
	f, err := Freeze(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumTasks()
	row := make([]float64, n)
	for u := 0; u < n; u++ {
		f.LongestFrom(f.Pos(u), row)
		for v := 0; v < n; v++ {
			got := row[f.Pos(v)]
			want, err := longestPathBetween(g, u, v)
			if errors.Is(err, errNoPath) {
				if !math.IsInf(got, -1) {
					t.Fatalf("%d->%d = %v want -Inf", u, v, got)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%d->%d = %v want %v", u, v, got, want)
			}
		}
	}
}

// Property: every LongestFrom row agrees with longestPathBetween on random
// DAGs, in their own (identity) order and with shuffled task IDs.
func TestQuickAllPairsAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := ErdosRenyiDAG(RandomConfig{Tasks: 15, EdgeProb: 0.3}, rng)
		if err != nil {
			return false
		}
		s, _ := shuffledCopy(t, g, seed)
		checkLongestFrom(t, g)
		checkLongestFrom(t, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the maximum over every LongestFrom row equals the makespan.
func TestQuickAllPairsMaxIsMakespan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := LayeredRandom(RandomConfig{Tasks: 20, EdgeProb: 0.4, MaxLayerWidth: 4}, rng)
		if err != nil {
			return false
		}
		fz, err := Freeze(g)
		if err != nil {
			return false
		}
		row := make([]float64, fz.NumTasks())
		best := math.Inf(-1)
		for k := 0; k < fz.NumTasks(); k++ {
			fz.LongestFrom(k, row)
			for _, d := range row {
				best = math.Max(best, d)
			}
		}
		d, _ := Makespan(g)
		return math.Abs(best-d) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCountPaths(t *testing.T) {
	g := Diamond(1, 1, 1, 1)
	n, err := CountPaths(g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("diamond paths = %v want 2", n)
	}
	// A stack of d diamonds has 2^d paths.
	stack := New(0)
	prev := stack.MustAddTask("s", 1)
	for d := 0; d < 10; d++ {
		l := stack.MustAddTask("l", 1)
		r := stack.MustAddTask("r", 1)
		join := stack.MustAddTask("j", 1)
		stack.MustAddEdge(prev, l)
		stack.MustAddEdge(prev, r)
		stack.MustAddEdge(l, join)
		stack.MustAddEdge(r, join)
		prev = join
	}
	n, _ = CountPaths(stack)
	if n != 1024 {
		t.Fatalf("diamond stack paths = %v want 1024", n)
	}
	if n, _ := CountPaths(Chain(5)); n != 1 {
		t.Fatalf("chain paths = %v want 1", n)
	}
}
