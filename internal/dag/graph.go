// Package dag provides weighted directed acyclic task graphs and the
// path-length machinery (topological orders, longest paths, top and bottom
// levels, reachability) that the makespan estimators are built on.
//
// A Graph models an application as in the paper: vertices are tasks with a
// failure-free execution weight, edges are precedence constraints. Tasks are
// identified by dense integer IDs in [0, NumTasks()).
package dag

import (
	"errors"
	"fmt"
)

// Graph is a weighted DAG of tasks. The zero value is an empty graph ready
// to use. Graph is not safe for concurrent mutation; read-only use from
// multiple goroutines is safe.
type Graph struct {
	names   []string
	weights []float64
	succ    [][]int
	pred    [][]int
	// succSet[i] mirrors succ[i] as a set once the out-degree crosses
	// dupMapThreshold, so duplicate-edge detection on dense nodes is O(1)
	// instead of an O(out-degree) scan. Sparse nodes stay map-free.
	succSet []map[int]struct{}
	edges   int
	// version counts mutations; Frozen snapshots record it to detect
	// staleness (see Frozen.UpToDate).
	version uint64
}

// dupMapThreshold is the out-degree above which AddEdge switches from a
// linear duplicate scan to a per-node set. Small enough to keep dense-graph
// construction O(E), large enough that typical sparse DAGs never allocate
// a map.
const dupMapThreshold = 16

// New returns an empty graph with capacity hints for n tasks.
func New(n int) *Graph {
	return &Graph{
		names:   make([]string, 0, n),
		weights: make([]float64, 0, n),
		succ:    make([][]int, 0, n),
		pred:    make([][]int, 0, n),
		succSet: make([]map[int]struct{}, 0, n),
	}
}

// Errors returned by graph mutators and validators.
var (
	ErrBadTask       = errors.New("dag: task id out of range")
	ErrSelfLoop      = errors.New("dag: self loop")
	ErrDuplicateEdge = errors.New("dag: duplicate edge")
	ErrCycle         = errors.New("dag: graph contains a cycle")
	ErrBadWeight     = errors.New("dag: task weight must be non-negative and finite")
)

// AddTask adds a task with the given name and failure-free weight and
// returns its ID. Weights must be non-negative; a zero weight is legal (the
// paper's synthetic source/sink tasks have zero weight).
func (g *Graph) AddTask(name string, weight float64) (int, error) {
	if err := checkWeight(weight); err != nil {
		return -1, err
	}
	id := len(g.names)
	g.names = append(g.names, name)
	g.weights = append(g.weights, weight)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.succSet = append(g.succSet, nil)
	g.version++
	return id, nil
}

// checkWeight rejects negative, NaN and huge (> 1e300) task weights.
func checkWeight(w float64) error {
	if w < 0 || w != w || w > 1e300 {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	return nil
}

// MustAddTask is AddTask panicking on error; for tests and generators whose
// inputs are known valid.
func (g *Graph) MustAddTask(name string, weight float64) int {
	id, err := g.AddTask(name, weight)
	if err != nil {
		panic(err)
	}
	return id
}

// AddEdge adds the precedence edge from -> to. Duplicate edges and self
// loops are rejected; cycles are only detected by Validate/TopoOrder since
// detecting them per edge would be quadratic.
func (g *Graph) AddEdge(from, to int) error {
	if from < 0 || from >= len(g.names) || to < 0 || to >= len(g.names) {
		return fmt.Errorf("%w: (%d,%d) with %d tasks", ErrBadTask, from, to, len(g.names))
	}
	if from == to {
		return fmt.Errorf("%w: task %d", ErrSelfLoop, from)
	}
	if set := g.succSet[from]; set != nil {
		if _, dup := set[to]; dup {
			return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, from, to)
		}
		set[to] = struct{}{}
	} else {
		for _, s := range g.succ[from] {
			if s == to {
				return fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, from, to)
			}
		}
		if len(g.succ[from]) >= dupMapThreshold {
			set = make(map[int]struct{}, 2*dupMapThreshold)
			for _, s := range g.succ[from] {
				set[s] = struct{}{}
			}
			set[to] = struct{}{}
			g.succSet[from] = set
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.edges++
	g.version++
	return nil
}

// MustAddEdge is AddEdge panicking on error.
func (g *Graph) MustAddEdge(from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.names) }

// NumEdges returns the number of precedence edges.
func (g *Graph) NumEdges() int { return g.edges }

// Name returns the name of task i.
func (g *Graph) Name(i int) string { return g.names[i] }

// Weight returns the failure-free weight of task i.
func (g *Graph) Weight(i int) float64 { return g.weights[i] }

// SetWeight replaces the weight of task i.
func (g *Graph) SetWeight(i int, w float64) error {
	if i < 0 || i >= len(g.names) {
		return ErrBadTask
	}
	if err := checkWeight(w); err != nil {
		return err
	}
	g.weights[i] = w
	g.version++
	return nil
}

// Weights returns a copy of the task weight vector.
func (g *Graph) Weights() []float64 {
	w := make([]float64, len(g.weights))
	copy(w, g.weights)
	return w
}

// TotalWeight returns the sum of all task weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, w := range g.weights {
		s += w
	}
	return s
}

// MeanWeight returns the average task weight (0 for an empty graph). The
// paper calibrates the failure rate λ from this quantity.
func (g *Graph) MeanWeight() float64 {
	if len(g.weights) == 0 {
		return 0
	}
	return g.TotalWeight() / float64(len(g.weights))
}

// Succ returns the successors of task i. The returned slice is owned by the
// graph and must not be mutated.
func (g *Graph) Succ(i int) []int { return g.succ[i] }

// Pred returns the predecessors of task i. The returned slice is owned by
// the graph and must not be mutated.
func (g *Graph) Pred(i int) []int { return g.pred[i] }

// InDegree returns the number of predecessors of task i.
func (g *Graph) InDegree(i int) int { return len(g.pred[i]) }

// OutDegree returns the number of successors of task i.
func (g *Graph) OutDegree(i int) int { return len(g.succ[i]) }

// Sources returns the IDs of tasks without predecessors, in ID order.
func (g *Graph) Sources() []int {
	var src []int
	for i := range g.pred {
		if len(g.pred[i]) == 0 {
			src = append(src, i)
		}
	}
	return src
}

// Sinks returns the IDs of tasks without successors, in ID order.
func (g *Graph) Sinks() []int {
	var snk []int
	for i := range g.succ {
		if len(g.succ[i]) == 0 {
			snk = append(snk, i)
		}
	}
	return snk
}

// Clone returns a deep copy of the graph. Duplicate-detection sets are not
// copied; AddEdge rebuilds them lazily when a dense node grows further.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names:   append([]string(nil), g.names...),
		weights: append([]float64(nil), g.weights...),
		succ:    make([][]int, len(g.succ)),
		pred:    make([][]int, len(g.pred)),
		succSet: make([]map[int]struct{}, len(g.succ)),
		edges:   g.edges,
	}
	for i := range g.succ {
		if len(g.succ[i]) > 0 {
			c.succ[i] = append([]int(nil), g.succ[i]...)
		}
		if len(g.pred[i]) > 0 {
			c.pred[i] = append([]int(nil), g.pred[i]...)
		}
	}
	return c
}

// HasEdge reports whether the edge from -> to exists.
func (g *Graph) HasEdge(from, to int) bool {
	if from < 0 || from >= len(g.names) {
		return false
	}
	if set := g.succSet[from]; set != nil {
		_, ok := set[to]
		return ok
	}
	for _, s := range g.succ[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Validate checks structural invariants: weight sanity and acyclicity.
func (g *Graph) Validate() error {
	for i, w := range g.weights {
		if w < 0 || w != w {
			return fmt.Errorf("task %d (%s): %w", i, g.names[i], ErrBadWeight)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("dag.Graph{tasks: %d, edges: %d, totalWeight: %g}",
		g.NumTasks(), g.NumEdges(), g.TotalWeight())
}
