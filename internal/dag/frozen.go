package dag

import (
	"fmt"
	"math"
)

// Frozen is an immutable, cache-friendly compiled form of a Graph: the
// adjacency lists are flattened into CSR-style arrays and every per-task
// vector is permuted into topological order, so the longest-path recurrence
// streams memory sequentially instead of chasing slices of slices. All hot
// consumers (Monte Carlo trials, the analytic estimators, list scheduling)
// evaluate against a Frozen.
//
// Layout: position k in [0, n) is the k-th task of the cached topological
// order. predAdj[predOff[k]:predOff[k+1]] holds the predecessors of
// position k as positions (all strictly smaller than k), in the same order
// as Graph.Pred, so order-sensitive folds reproduce the slice-of-slices
// results bit for bit. succAdj/succOff mirror this for successors.
//
// A Frozen is a snapshot: it is safe for concurrent read-only use, and
// mutating the source Graph afterwards (AddTask, AddEdge, SetWeight) does
// not affect it. Use UpToDate to detect staleness and re-Freeze.
type Frozen struct {
	n       int
	order   []int32   // topo position -> task id
	pos     []int32   // task id -> topo position
	predOff []int32   // CSR offsets into predAdj, len n+1
	predAdj []int32   // predecessor positions, grouped by position
	succOff []int32   // CSR offsets into succAdj, len n+1
	succAdj []int32   // successor positions, grouped by position
	wTopo   []float64 // task weights permuted into topo order
	// identity is true when the topological order is 0,1,...,n-1, i.e. the
	// graph was built in topo order (all generators do); Gather/Scatter
	// then degrade to copies and evaluators can skip permutation entirely.
	identity bool
	g        *Graph
	version  uint64
}

// Freeze compiles g into its frozen representation. It fails on cyclic
// graphs, like TopoOrder.
func Freeze(g *Graph) (*Frozen, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumTasks()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dag: %d tasks exceed the frozen representation limit", n)
	}
	if g.NumEdges() > math.MaxInt32 {
		return nil, fmt.Errorf("dag: %d edges exceed the frozen representation limit", g.NumEdges())
	}
	f := &Frozen{
		n:       n,
		order:   make([]int32, n),
		pos:     make([]int32, n),
		predOff: make([]int32, n+1),
		predAdj: make([]int32, g.NumEdges()),
		succOff: make([]int32, n+1),
		succAdj: make([]int32, g.NumEdges()),
		wTopo:   make([]float64, n),
		g:       g,
		version: g.version,
	}
	f.identity = true
	for k, v := range order {
		f.order[k] = int32(v)
		f.pos[v] = int32(k)
		if k != v {
			f.identity = false
		}
	}
	var po, so int32
	for k := 0; k < n; k++ {
		v := order[k]
		f.predOff[k] = po
		for _, p := range g.pred[v] {
			f.predAdj[po] = f.pos[p]
			po++
		}
		f.succOff[k] = so
		for _, s := range g.succ[v] {
			f.succAdj[so] = f.pos[s]
			so++
		}
		f.wTopo[k] = g.weights[v]
	}
	f.predOff[n] = po
	f.succOff[n] = so
	return f, nil
}

// Graph returns the source graph.
func (f *Frozen) Graph() *Graph { return f.g }

// SizeBytes reports the approximate retained heap size of the frozen
// representation itself — the permutation, CSR adjacency and weight
// arrays — excluding the source graph. Cache layers (the makespand graph
// registry) use it for byte budgeting.
func (f *Frozen) SizeBytes() int64 {
	const (
		i32 = 4
		f64 = 8
	)
	s := int64(len(f.order)+len(f.pos)+len(f.predOff)+len(f.predAdj)+len(f.succOff)+len(f.succAdj)) * i32
	s += int64(len(f.wTopo)) * f64
	return s + 64 // struct header
}

// NumTasks returns the number of tasks.
func (f *Frozen) NumTasks() int { return f.n }

// UpToDate reports whether the source graph is unchanged since Freeze.
// A stale Frozen still evaluates the snapshot it was built from.
func (f *Frozen) UpToDate() bool { return f.version == f.g.version }

// TaskID maps a topological position to the task ID it holds.
func (f *Frozen) TaskID(k int) int { return int(f.order[k]) }

// Pos maps a task ID to its topological position.
func (f *Frozen) Pos(id int) int { return int(f.pos[id]) }

// WeightsTopo returns the snapshot weights in topological order. The slice
// is owned by the Frozen and must not be mutated.
func (f *Frozen) WeightsTopo() []float64 { return f.wTopo }

// PredTopo returns the predecessors of position k as positions (< k), in
// Graph.Pred order. Owned by the Frozen; do not mutate.
func (f *Frozen) PredTopo(k int) []int32 { return f.predAdj[f.predOff[k]:f.predOff[k+1]] }

// SuccTopo returns the successors of position k as positions (> k), in
// Graph.Succ order. Owned by the Frozen; do not mutate.
func (f *Frozen) SuccTopo(k int) []int32 { return f.succAdj[f.succOff[k]:f.succOff[k+1]] }

// InDegreeTopo returns the number of predecessors of position k.
func (f *Frozen) InDegreeTopo(k int) int { return int(f.predOff[k+1] - f.predOff[k]) }

// OutDegreeTopo returns the number of successors of position k.
func (f *Frozen) OutDegreeTopo(k int) int { return int(f.succOff[k+1] - f.succOff[k]) }

// Gather permutes a task-ID-indexed vector into topological order:
// dst[k] = src[TaskID(k)]. dst must have length NumTasks; it is returned.
func (f *Frozen) Gather(dst, src []float64) []float64 {
	if f.identity {
		copy(dst, src)
		return dst
	}
	for k, id := range f.order {
		dst[k] = src[id]
	}
	return dst
}

// Scatter permutes a topo-order vector back to task-ID order:
// dst[TaskID(k)] = src[k]. dst must have length NumTasks; it is returned.
func (f *Frozen) Scatter(dst, src []float64) []float64 {
	if f.identity {
		copy(dst, src)
		return dst
	}
	for k, id := range f.order {
		dst[id] = src[k]
	}
	return dst
}

// PredCSR returns the raw predecessor adjacency in CSR form: the
// predecessors of position k are adj[off[k]:off[k+1]], in Graph.Pred
// order, as positions strictly smaller than k. Both slices are owned by
// the Frozen and must not be mutated. Batch evaluators (the Monte Carlo
// lane kernel) stream these arrays directly.
func (f *Frozen) PredCSR() (off, adj []int32) { return f.predOff, f.predAdj }

// MakespanTopo computes the makespan for the topo-order weight vector w,
// writing per-position completion times into the caller's scratch comp.
// Both slices must have length NumTasks. This is the Monte Carlo inner
// kernel: one sequential pass, no allocation, no pointer chasing.
func (f *Frozen) MakespanTopo(w, comp []float64) float64 {
	if len(w) != f.n || len(comp) != f.n {
		panic(fmt.Sprintf("dag: frozen kernel wants %d weights, got w=%d comp=%d", f.n, len(w), len(comp)))
	}
	adj, off := f.predAdj, f.predOff
	best := 0.0
	o := 0
	for k := range w {
		start := 0.0
		for end := int(off[k+1]); o < end; o++ {
			if c := comp[adj[o]]; c > start {
				start = c
			}
		}
		c := start + w[k]
		comp[k] = c
		if c > best {
			best = c
		}
	}
	return best
}

// TailsTopo fills tail[k] with the length of the longest path starting at
// position k (inclusive of its weight), for the topo-order weight vector w.
// Both slices must have length NumTasks.
func (f *Frozen) TailsTopo(w, tail []float64) {
	if len(w) != f.n || len(tail) != f.n {
		panic(fmt.Sprintf("dag: frozen kernel wants %d weights, got w=%d tail=%d", f.n, len(w), len(tail)))
	}
	adj, off := f.succAdj, f.succOff
	o := len(adj)
	for k := f.n - 1; k >= 0; k-- {
		t := 0.0
		for end := int(off[k]); o > end; {
			o--
			if s := tail[adj[o]]; s > t {
				t = s
			}
		}
		tail[k] = t + w[k]
	}
}

// LongestFrom fills row[v] with the length of the longest path from
// position k to position v, counting both endpoint weights, or -Inf when v
// is unreachable from k (every v < k among them). row is indexed by topo
// position and must have length NumTasks. One forward DP over the
// positions after k: O(V+E), no allocation.
func (f *Frozen) LongestFrom(k int, row []float64) {
	if len(row) != f.n {
		panic(fmt.Sprintf("dag: frozen kernel wants %d row entries, got %d", f.n, len(row)))
	}
	ninf := math.Inf(-1)
	for v := range row {
		row[v] = ninf
	}
	row[k] = f.wTopo[k]
	for u := k; u < f.n; u++ {
		lu := row[u]
		if lu == ninf {
			continue
		}
		for _, s := range f.SuccTopo(u) {
			if c := lu + f.wTopo[s]; c > row[s] {
				row[s] = c
			}
		}
	}
}

// Makespan returns the failure-free makespan of the snapshot weights,
// allocating transient scratch. For repeated evaluation use MakespanTopo
// with reused buffers (or a PathEvaluator).
func (f *Frozen) Makespan() float64 {
	comp := make([]float64, f.n)
	return f.MakespanTopo(f.wTopo, comp)
}
