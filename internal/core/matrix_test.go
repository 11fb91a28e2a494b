package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dag"
	"repro/internal/failure"
	"repro/internal/linalg"
)

// longestMatrix is the all-pairs longest-path oracle: dist[u][v] is the
// longest u→v path counting both endpoint weights, or -Inf when v is not
// reachable from u. It walks the Graph API in task-ID space, apart from
// the Frozen row kernel the production estimators use.
func longestMatrix(g *dag.Graph) ([][]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumTasks()
	dist := make([][]float64, n)
	for u := range dist {
		row := make([]float64, n)
		for v := range row {
			row[v] = math.Inf(-1)
		}
		row[u] = g.Weight(u)
		for _, x := range order {
			if math.IsInf(row[x], -1) {
				continue
			}
			for _, s := range g.Succ(x) {
				if c := row[x] + g.Weight(s); c > row[s] {
					row[s] = c
				}
			}
		}
		dist[u] = row
	}
	return dist, nil
}

// secondOrderMatrix is SecondOrder over the full matrix, visiting the
// unordered pairs in task-ID order i<j and reading whichever direction
// has a path.
func secondOrderMatrix(g *dag.Graph, model failure.Model) (float64, error) {
	dist, err := longestMatrix(g)
	if err != nil {
		return 0, err
	}
	pe, err := dag.NewPathEvaluator(g)
	if err != nil {
		return 0, err
	}
	lam := model.Lambda
	d := pe.Makespan()
	heads := pe.Heads()
	tails := pe.Tails()
	n := g.NumTasks()
	a, dGi := g.Weights(), make([]float64, n)
	var total, sumSq float64
	for i := 0; i < n; i++ {
		total += a[i]
		sumSq += a[i] * a[i]
		dGi[i] = math.Max(d, heads[i]+tails[i])
	}
	sumPairsProd := (total*total - sumSq) / 2
	est := (1 - lam*total + lam*lam*(sumPairsProd+sumSq/2)) * d
	for i := 0; i < n; i++ {
		pi := lam*a[i] - 1.5*lam*lam*a[i]*a[i] - lam*lam*a[i]*(total-a[i])
		est += pi * dGi[i]
		dGi2 := math.Max(d, heads[i]+tails[i]+a[i])
		est += lam * lam * a[i] * a[i] * dGi2
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dij := math.Max(dGi[i], dGi[j])
			if lp := dist[i][j]; !math.IsInf(lp, -1) {
				through := heads[i] + lp - a[i] - a[j] + tails[j]
				dij = math.Max(dij, through+a[i]+a[j])
			} else if lp := dist[j][i]; !math.IsInf(lp, -1) {
				through := heads[j] + lp - a[j] - a[i] + tails[i]
				dij = math.Max(dij, through+a[i]+a[j])
			}
			est += lam * lam * a[i] * a[j] * dij
		}
	}
	return est, nil
}

// expectedBottomLevelsMatrix is ExpectedBottomLevels over the full matrix.
func expectedBottomLevelsMatrix(g *dag.Graph, model failure.Model) ([]float64, error) {
	dist, err := longestMatrix(g)
	if err != nil {
		return nil, err
	}
	pe, err := dag.NewPathEvaluator(g)
	if err != nil {
		return nil, err
	}
	tails := pe.Tails()
	n := g.NumTasks()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			lp := dist[i][j]
			if math.IsInf(lp, -1) {
				continue
			}
			if delta := lp + tails[j] - tails[i]; delta > 0 {
				sum += g.Weight(j) * delta
			}
		}
		out[i] = tails[i] + model.Lambda*sum
	}
	return out, nil
}

// shuffledIDs returns g with its task IDs permuted, so its topological
// order is no longer the identity.
func shuffledIDs(g *dag.Graph, rng *rand.Rand) *dag.Graph {
	n := g.NumTasks()
	perm := rng.Perm(n) // perm[old] = new id
	inv := make([]int, n)
	for old, id := range perm {
		inv[id] = old
	}
	s := dag.New(n)
	for id := 0; id < n; id++ {
		s.MustAddTask(g.Name(inv[id]), g.Weight(inv[id]))
	}
	for old := 0; old < n; old++ {
		for _, succ := range g.Succ(old) {
			s.MustAddEdge(perm[old], perm[succ])
		}
	}
	return s
}

// checkAgainstMatrix compares SecondOrder (within soTol relative; 0 means
// bit for bit) and ExpectedBottomLevels (bit for bit) with the oracle.
func checkAgainstMatrix(t *testing.T, name string, g *dag.Graph, soTol float64) {
	t.Helper()
	m, err := failure.FromPfail(0.01, g.MeanWeight())
	if err != nil {
		t.Fatal(err)
	}
	so, err := SecondOrder(g, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := secondOrderMatrix(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := so.Estimate; math.Abs(got-want) > soTol*math.Abs(want) {
		t.Errorf("%s: SecondOrder %v, matrix oracle %v (rel %.3g)", name, got, want, math.Abs(got-want)/want)
	}
	ebl, err := ExpectedBottomLevels(g, m)
	if err != nil {
		t.Fatal(err)
	}
	wantEBL, err := expectedBottomLevelsMatrix(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ebl {
		if ebl[i] != wantEBL[i] {
			t.Fatalf("%s: ExpectedBottomLevels[%d] %v, matrix oracle %v", name, i, ebl[i], wantEBL[i])
		}
	}
}

// On the generator graphs the topological order is the identity, so the
// row-per-source pair loop is the oracle's i<j loop: bit-identical.
func TestLongestRowsMatchMatrixOnFactorizations(t *testing.T) {
	for _, f := range linalg.All() {
		for _, k := range []int{3, 6, 10} {
			g, err := linalg.Generate(f, k, linalg.DefaultKernelTimes())
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstMatrix(t, fmt.Sprintf("%v k=%d", f, k), g, 0)
		}
	}
}

// With shuffled task IDs the pairs are summed in a different order, so
// SecondOrder may move by a few ulps; the bottom levels keep their j
// order and stay bit-identical.
func TestLongestRowsMatchMatrixOnShuffledDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		g, err := dag.LayeredRandom(dag.RandomConfig{Tasks: 200, EdgeProb: 0.1, MaxLayerWidth: 12}, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstMatrix(t, fmt.Sprintf("layered #%d", trial), shuffledIDs(g, rng), 1e-12)
	}
}

// bytesPerCall returns the heap bytes one call of fn allocates, averaged
// over three calls after a warm-up.
func bytesPerCall(t *testing.T, fn func() error) float64 {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	const calls = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}

// SecondOrder and ExpectedBottomLevels hold one longest-path row, not the
// all-pairs matrix: doubling LU's k multiplies the task count by ~7.3 and
// the bytes allocated per call by no more than twice that (a V² matrix
// would be ~50×).
func TestLongestRowMemoryIsLinear(t *testing.T) {
	small, err := linalg.LU(8, linalg.DefaultKernelTimes())
	if err != nil {
		t.Fatal(err)
	}
	large, err := linalg.LU(16, linalg.DefaultKernelTimes())
	if err != nil {
		t.Fatal(err)
	}
	m := failure.Model{Lambda: 1e-4}
	bound := 2 * float64(large.NumTasks()) / float64(small.NumTasks())
	for name, run := range map[string]func(g *dag.Graph) error{
		"SecondOrder": func(g *dag.Graph) error {
			_, err := SecondOrder(g, m)
			return err
		},
		"ExpectedBottomLevels": func(g *dag.Graph) error {
			_, err := ExpectedBottomLevels(g, m)
			return err
		},
	} {
		bs := bytesPerCall(t, func() error { return run(small) })
		bl := bytesPerCall(t, func() error { return run(large) })
		t.Logf("%s: %.0f B/call at %d tasks, %.0f at %d", name, bs, small.NumTasks(), bl, large.NumTasks())
		if ratio := bl / bs; ratio > bound {
			t.Errorf("%s: %.0f B/call at %d tasks, %.0f at %d: ratio %.1f > %.1f",
				name, bs, small.NumTasks(), bl, large.NumTasks(), ratio, bound)
		}
	}
}
