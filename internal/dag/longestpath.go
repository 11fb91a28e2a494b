package dag

import (
	"fmt"
	"math"
)

// PathEvaluator computes longest-path quantities for one graph. It compiles
// the graph into its Frozen CSR form once and keeps reusable scratch
// buffers, so the hot paths (Monte Carlo trials, per-task weight
// perturbations) stream memory sequentially and do not allocate.
// A PathEvaluator is not safe for concurrent use; create one per goroutine
// (they can share the same Frozen via NewPathEvaluatorFrozen).
type PathEvaluator struct {
	f *Frozen
	// scratch, all in topological order
	wTopo []float64 // gathered weight vector for the current pass
	comp  []float64 // completion time per position in the current pass
	tail  []float64 // longest path starting at position (inclusive)
}

// NewPathEvaluator prepares an evaluator for g. It fails if g is cyclic.
func NewPathEvaluator(g *Graph) (*PathEvaluator, error) {
	f, err := Freeze(g)
	if err != nil {
		return nil, err
	}
	return NewPathEvaluatorFrozen(f), nil
}

// NewPathEvaluatorFrozen wraps per-goroutine scratch around an existing
// Frozen, sharing the compiled graph across evaluators.
func NewPathEvaluatorFrozen(f *Frozen) *PathEvaluator {
	n := f.NumTasks()
	return &PathEvaluator{
		f:     f,
		wTopo: make([]float64, n),
		comp:  make([]float64, n),
		tail:  make([]float64, n),
	}
}

// Graph returns the underlying graph.
func (pe *PathEvaluator) Graph() *Graph { return pe.f.g }

// Frozen returns the compiled representation the evaluator runs on.
func (pe *PathEvaluator) Frozen() *Frozen { return pe.f }

// TopoOrder returns the cached topological order. The slice is allocated
// per call; the cached order itself lives in the Frozen.
func (pe *PathEvaluator) TopoOrder() []int {
	out := make([]int, pe.f.n)
	for k := range out {
		out[k] = pe.f.TaskID(k)
	}
	return out
}

// Makespan returns the failure-free makespan d(G): the maximum over tasks
// of their completion time with unlimited processors,
// C(i) = a_i + max_{j in Pred(i)} C(j). It reads the graph's live weights,
// so SetWeight between calls is honored.
func (pe *PathEvaluator) Makespan() float64 {
	return pe.MakespanWith(pe.f.g.weights)
}

// MakespanWith computes the makespan using the provided weight vector
// (task-ID indexed) in place of the graph's weights. len(weights) must
// equal NumTasks. This is the Monte Carlo hot path: no allocation.
func (pe *PathEvaluator) MakespanWith(weights []float64) float64 {
	if len(weights) != pe.f.n {
		panic(fmt.Sprintf("dag: weight vector length %d != %d tasks", len(weights), pe.f.n))
	}
	if pe.f.identity {
		// Topo order == ID order: evaluate the caller's vector in place,
		// no copy. Consumers of pe.wTopo (CriticalPath) re-gather.
		return pe.f.MakespanTopo(weights, pe.comp)
	}
	pe.f.Gather(pe.wTopo, weights)
	return pe.f.MakespanTopo(pe.wTopo, pe.comp)
}

// CompletionTimes returns C(i) for every task under the graph's weights.
func (pe *PathEvaluator) CompletionTimes() []float64 {
	pe.Makespan()
	return pe.f.Scatter(make([]float64, pe.f.n), pe.comp)
}

// Heads returns head(i): the length of the longest path ending at i,
// including a_i. head(i) equals the completion time C(i).
func (pe *PathEvaluator) Heads() []float64 {
	return pe.CompletionTimes()
}

// Tails returns tail(i): the length of the longest path starting at i,
// including a_i. tail(i) = a_i + max_{j in Succ(i)} tail(j).
func (pe *PathEvaluator) Tails() []float64 {
	pe.f.Gather(pe.wTopo, pe.f.g.weights)
	pe.f.TailsTopo(pe.wTopo, pe.tail)
	return pe.f.Scatter(make([]float64, pe.f.n), pe.tail)
}

// HeadsTailsTopo returns d(G) and every task's head and tail under the
// graph's weights, in topological order: position k holds task
// Frozen().TaskID(k), and task i sits at Frozen().Pos(i). The slices are
// the evaluator's scratch, valid until its next call; Heads and Tails
// are the allocating, task-indexed copies.
func (pe *PathEvaluator) HeadsTailsTopo() (d float64, heads, tails []float64) {
	d = pe.Makespan()
	pe.f.Gather(pe.wTopo, pe.f.g.weights)
	pe.f.TailsTopo(pe.wTopo, pe.tail)
	return d, pe.comp, pe.tail
}

// pathEps returns the tolerance used when matching completion times along
// a critical path: float64 longest-path sums accumulate rounding, so exact
// equality would sporadically miss the true predecessor.
func pathEps(d float64) float64 {
	return 1e-9 * math.Max(1, math.Abs(d))
}

// CriticalPath returns one longest path as a sequence of task IDs, and its
// length. For an empty graph it returns (nil, 0). Completion times are
// matched with a relative epsilon rather than exact float equality, so
// paths whose lengths differ only by accumulated rounding are still
// recognized.
func (pe *PathEvaluator) CriticalPath() ([]int, float64) {
	f := pe.f
	if f.n == 0 {
		return nil, 0
	}
	d := pe.Makespan() // fills pe.comp (topo order)
	if f.identity {
		// Makespan's identity fast path evaluates the live weights in
		// place without filling pe.wTopo; the walk below needs them.
		f.Gather(pe.wTopo, f.g.weights)
	}
	eps := pathEps(d)
	// Find a position whose completion time reaches the makespan, then walk
	// backwards through predecessors achieving the critical start time.
	// The endpoint match is exact: d is the running max of comp, so some
	// position attains it bit for bit; the tolerance is only for the
	// backward walk, where subtraction reintroduces rounding.
	end := -1
	for k := 0; k < f.n; k++ {
		if pe.comp[k] == d {
			end = k
			break
		}
	}
	var rev []int
	k := end
	for k >= 0 {
		rev = append(rev, f.TaskID(k))
		preds := f.PredTopo(k)
		if len(preds) == 0 {
			break
		}
		start := pe.comp[k] - pe.wTopo[k]
		next := -1
		for _, p := range preds {
			if math.Abs(pe.comp[p]-start) <= eps {
				next = int(p)
				break
			}
		}
		if next < 0 {
			// Numerical slack beyond eps: pick the max-completion
			// predecessor, which by construction achieves the start time.
			bestC := math.Inf(-1)
			for _, p := range preds {
				if pe.comp[p] > bestC {
					bestC, next = pe.comp[p], int(p)
				}
			}
		}
		k = next
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, d
}

// Makespan returns the failure-free makespan d(G) of g. Convenience wrapper
// that builds a transient evaluator.
func Makespan(g *Graph) (float64, error) {
	pe, err := NewPathEvaluator(g)
	if err != nil {
		return 0, err
	}
	return pe.Makespan(), nil
}
