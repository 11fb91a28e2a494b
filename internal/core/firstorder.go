// Package core implements the paper's contribution (§IV): a first-order
// approximation of the expected makespan of a DAG whose tasks are subject
// to silent errors, plus the second-order extension sketched in the
// paper's conclusion and failure-aware expected bottom levels for
// scheduling.
//
// The first-order identity: with failure rate λ and per-task weights a_i,
//
//	E(G) = d(G) + λ · Σ_i a_i (d(G_i) − d(G)) + O(λ²)
//
// where d(G) is the failure-free makespan and G_i doubles a_i. Since
// doubling a_i adds a_i to exactly the paths through i,
// d(G_i) = max(d(G), head(i)+tail(i)), which yields an O(V+E) evaluator;
// FirstOrderNaive recomputes each d(G_i) from scratch in O(V(V+E)) and is
// kept as an oracle and for the ablation benchmarks.
package core

import (
	"repro/internal/dag"
	"repro/internal/failure"
)

// FirstOrderResult carries the estimate and its per-task decomposition.
type FirstOrderResult struct {
	// Estimate is the first-order approximation of the expected makespan.
	Estimate float64
	// FailureFree is d(G), the deterministic makespan and a lower bound on
	// the expected makespan.
	FailureFree float64
	// Contribution[i] = a_i·(d(G_i) − d(G)): task i's sensitivity. The
	// estimate is FailureFree + λ·Σ Contribution.
	Contribution []float64
}

// FirstOrder computes the paper's first-order approximation in O(V+E).
func FirstOrder(g *dag.Graph, model failure.Model) (FirstOrderResult, error) {
	pe, err := dag.NewPathEvaluator(g)
	if err != nil {
		return FirstOrderResult{}, err
	}
	return FirstOrderWith(pe, model), nil
}

// FirstOrderWith is FirstOrder reusing a prepared evaluator, for callers
// estimating the same graph under many failure rates.
func FirstOrderWith(pe *dag.PathEvaluator, model failure.Model) FirstOrderResult {
	res := FirstOrderResult{Contribution: make([]float64, pe.Graph().NumTasks())}
	res.FailureFree, res.Estimate = firstOrder(pe, model, res.Contribution)
	return res
}

// FirstOrderEstimate is FirstOrderWith(pe, model).Estimate, bit for bit,
// without allocating: it reads the evaluator's heads and tails in place
// and keeps no per-task contributions.
func FirstOrderEstimate(pe *dag.PathEvaluator, model failure.Model) float64 {
	_, est := firstOrder(pe, model, nil)
	return est
}

// firstOrder returns d(G) and the First Order estimate, summing the
// contributions in task order and storing them in contrib unless it is
// nil.
func firstOrder(pe *dag.PathEvaluator, model failure.Model, contrib []float64) (d, est float64) {
	g := pe.Graph()
	f := pe.Frozen()
	d, heads, tails := pe.HeadsTailsTopo()
	var sum float64
	for i := 0; i < g.NumTasks(); i++ {
		// d(G_i) − d(G) = max(0, head(i)+tail(i) − d).
		k := f.Pos(i)
		delta := heads[k] + tails[k] - d
		if delta < 0 {
			delta = 0
		}
		c := g.Weight(i) * delta
		if contrib != nil {
			contrib[i] = c
		}
		sum += c
	}
	return d, d + model.Lambda*sum
}

// FirstOrderNaive evaluates the same approximation by recomputing d(G_i)
// for every task with a fresh longest-path pass: O(V·(V+E)). Used as the
// reference implementation in property tests and as the ablation baseline
// quantifying the speedup of the head/tail identity.
func FirstOrderNaive(g *dag.Graph, model failure.Model) (FirstOrderResult, error) {
	pe, err := dag.NewPathEvaluator(g)
	if err != nil {
		return FirstOrderResult{}, err
	}
	d := pe.Makespan()
	n := g.NumTasks()
	res := FirstOrderResult{
		FailureFree:  d,
		Contribution: make([]float64, n),
	}
	weights := g.Weights()
	var sum float64
	for i := 0; i < n; i++ {
		orig := weights[i]
		weights[i] = 2 * orig
		di := pe.MakespanWith(weights)
		weights[i] = orig
		c := orig * (di - d)
		res.Contribution[i] = c
		sum += c
	}
	res.Estimate = d + model.Lambda*sum
	return res, nil
}
