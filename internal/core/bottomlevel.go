package core

import (
	"math"

	"repro/internal/dag"
	"repro/internal/failure"
)

// ExpectedBottomLevels returns, for every task i, a first-order
// approximation of the expected length of the longest path starting at i
// (inclusive of a_i) when tasks fail with rate λ — the failure-aware
// analogue of tail(i) = a_i + bl(i) that the paper's conclusion proposes
// to feed into CP/HEFT-style list scheduling.
//
// Applying the paper's identity to the sub-DAG hanging below i: doubling a
// downstream task j (reachable from i) turns tail(i) into
// max(tail(i), lp(i→j) + tail(j) − a_j + a_j), so the analogue of the
// paper's d(G_j) identity is
//
//	E[tail(i)] ≈ tail(i) + λ Σ_{j ⪰ i} a_j·max(0, lp(i→j) + tail(j) − tail(i))
//
// where lp(i→j) is the longest i→j path (inclusive), read from one reused
// longest-path row per task. Cost O(V(V+E)) time and O(V) memory.
func ExpectedBottomLevels(g *dag.Graph, model failure.Model) ([]float64, error) {
	f, err := dag.Freeze(g)
	if err != nil {
		return nil, err
	}
	pe := dag.NewPathEvaluatorFrozen(f)
	tails := pe.Tails()
	n := g.NumTasks()
	out := make([]float64, n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		f.LongestFrom(f.Pos(i), row)
		sum := 0.0
		for j := 0; j < n; j++ {
			lp := row[f.Pos(j)]
			if math.IsInf(lp, -1) {
				continue
			}
			// Longest path from i through j is lp + tail(j) − a_j;
			// doubling a_j raises it by a_j, so the excess over tail(i) is:
			delta := lp + tails[j] - tails[i]
			if delta > 0 {
				sum += g.Weight(j) * delta
			}
		}
		out[i] = tails[i] + model.Lambda*sum
	}
	return out, nil
}
