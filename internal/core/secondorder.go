package core

import (
	"math"

	"repro/internal/dag"
	"repro/internal/failure"
)

// SecondOrderResult carries the O(λ²) estimate and its pieces.
type SecondOrderResult struct {
	// Estimate is the second-order approximation of the expected makespan.
	Estimate float64
	// FirstOrder is the first-order estimate on the same graph, for
	// comparing the size of the λ² correction.
	FirstOrder float64
	// FailureFree is d(G).
	FailureFree float64
}

// SecondOrder computes the second-order (in λ) approximation of the
// expected makespan — the extension the paper's conclusion proposes.
// Expanding per-task attempt-count probabilities to O(λ²) and keeping all
// failure multisets of probability Ω(λ²):
//
//	P(no failure)          = 1 − λA + λ²(Σ_{i<j} a_i a_j + Σ a_i²/2)
//	P(task i fails once)   = λa_i − (3/2)λ²a_i² − λ²a_i(A − a_i)
//	P(task i fails twice)  = λ²a_i²
//	P(i and j fail once)   = λ²a_i a_j           (i ≠ j)
//
// with A = Σ a_i; the retained mass is 1 − O(λ³) (asserted in tests).
// The corresponding makespans are d(G), d(G_i) (a_i doubled), d(G_i²)
// (a_i tripled) and d(G_ij) (both doubled). Pairs are evaluated in O(1)
// against one longest-path row per source task:
//
//	d(G_ij) = max(d, M_i+a_i, M_j+a_j, through(i,j)+a_i+a_j)
//
// where through(i,j) is the longest path containing both tasks. Such a
// path runs from the topologically earlier task to the later one, so each
// unordered pair is visited once, from its earlier endpoint's row.
// Total cost O(V(V+E) + V²) time and O(V) memory.
func SecondOrder(g *dag.Graph, model failure.Model) (SecondOrderResult, error) {
	// One frozen compilation shared by the evaluator and the pair rows.
	f, err := dag.Freeze(g)
	if err != nil {
		return SecondOrderResult{}, err
	}
	pe := dag.NewPathEvaluatorFrozen(f)
	lam := model.Lambda
	d := pe.Makespan()
	heads := pe.Heads()
	tails := pe.Tails()
	n := g.NumTasks()

	var a, dGi []float64 = g.Weights(), make([]float64, n)
	var total float64 // A = Σ a_i
	var sumSq float64 // Q = Σ a_i²
	for i := 0; i < n; i++ {
		total += a[i]
		sumSq += a[i] * a[i]
		dGi[i] = math.Max(d, heads[i]+tails[i])
	}
	sumPairsProd := (total*total - sumSq) / 2 // Σ_{i<j} a_i a_j

	pEmpty := 1 - lam*total + lam*lam*(sumPairsProd+sumSq/2)
	est := pEmpty * d
	firstOrderSum := 0.0
	for i := 0; i < n; i++ {
		pi := lam*a[i] - 1.5*lam*lam*a[i]*a[i] - lam*lam*a[i]*(total-a[i])
		est += pi * dGi[i]
		firstOrderSum += a[i] * (dGi[i] - d)
		// Task i failing twice: weight 3a_i adds 2a_i along its paths.
		dGi2 := math.Max(d, heads[i]+tails[i]+a[i])
		est += lam * lam * a[i] * a[i] * dGi2
	}
	// Unordered pairs, each failing once, from the earlier topo position
	// u to the later one v, so every per-task vector switches to topo
	// order. On graphs built in topo order this is the task-ID i<j order.
	_, heads, tails = pe.HeadsTailsTopo()
	a = f.WeightsTopo()
	for k := range dGi {
		dGi[k] = math.Max(d, heads[k]+tails[k])
	}
	row := make([]float64, n)
	for u := 0; u < n; u++ {
		f.LongestFrom(u, row)
		for v := u + 1; v < n; v++ {
			duv := math.Max(dGi[u], dGi[v])
			// A path through both exists only if u reaches v.
			if lp := row[v]; !math.IsInf(lp, -1) {
				through := heads[u] + lp - a[u] - a[v] + tails[v]
				duv = math.Max(duv, through+a[u]+a[v])
			}
			est += lam * lam * a[u] * a[v] * duv
		}
	}
	return SecondOrderResult{
		Estimate:    est,
		FirstOrder:  d + lam*firstOrderSum,
		FailureFree: d,
	}, nil
}

// secondOrderMass returns the total probability mass retained by the
// second-order expansion; exported to tests via export_test.go.
func secondOrderMass(g *dag.Graph, model failure.Model) float64 {
	lam := model.Lambda
	var total, sumSq float64
	for i := 0; i < g.NumTasks(); i++ {
		a := g.Weight(i)
		total += a
		sumSq += a * a
	}
	sumPairsProd := (total*total - sumSq) / 2
	mass := 1 - lam*total + lam*lam*(sumPairsProd+sumSq/2)
	for i := 0; i < g.NumTasks(); i++ {
		a := g.Weight(i)
		mass += lam*a - 1.5*lam*lam*a*a - lam*lam*a*(total-a)
		mass += lam * lam * a * a
	}
	mass += lam * lam * sumPairsProd
	return mass
}
