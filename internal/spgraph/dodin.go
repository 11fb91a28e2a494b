package spgraph

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/distribution"
	"repro/internal/failure"
)

// Result is the outcome of a series-parallel (or Dodin-approximated)
// evaluation.
type Result struct {
	// Estimate is the mean of Distribution: the approximated expected
	// makespan.
	Estimate float64
	// Distribution is the (possibly rediscretized) makespan distribution
	// of the reduced network.
	Distribution distribution.Discrete
}

// DodinStats reports how far the input was from series-parallel.
type DodinStats struct {
	// Duplications is the number of node duplications needed; 0 means the
	// graph was already series-parallel and the result is exact (up to the
	// support cap).
	Duplications int
	// Reductions is the total number of series/parallel reductions.
	Reductions int
}

// Dodin approximates the expected makespan of g by Dodin's method: convert
// to an activity-on-arc network, apply series/parallel reductions, and
// when stuck duplicate a join node (splitting one incoming arc onto a
// fresh copy of the node and duplicating its outgoing arcs) until the
// network collapses to a single arc. Duplication treats the duplicated
// subpaths as independent, which is the method's approximation. It is
// Compile followed by one Run under model.
//
// maxAtoms caps distribution supports (DefaultMaxAtoms if 0; pass a
// negative value for an unlimited, exact-arithmetic run on small graphs).
func Dodin(g *dag.Graph, model failure.Model, maxAtoms int) (Result, DodinStats, error) {
	plan, err := Compile(g, maxAtoms)
	if err != nil {
		return Result{}, DodinStats{}, err
	}
	res, err := plan.Run(model)
	return res, plan.Stats(), err
}

// reduce runs the reduction/duplication loop on the network until it
// collapses to one source→sink arc, returning that arc's ID.
func (net *Network) reduce() (int, DodinStats, error) {
	var stats DodinStats
	// Every duplication removes one excess incoming arc from an existing
	// join; the subsequent reductions can create new joins, so guard the
	// loop with a generous budget proportional to the initial size.
	budget := 40*net.nAlive + 1000
	for {
		stats.Reductions += net.reducePass()
		if id, err := net.result(); err == nil {
			return id, stats, nil
		}
		if !net.duplicateOne() {
			return 0, stats, fmt.Errorf("spgraph: reduction stuck with %d arcs and no join to duplicate", net.nAlive)
		}
		stats.Duplications++
		if stats.Duplications > budget {
			return 0, stats, fmt.Errorf("spgraph: duplication budget %d exceeded (arcs left: %d)", budget, net.nAlive)
		}
	}
}

// candPush records a join candidate whenever a node's degrees change into
// (or stay in) candidate shape. Entries are lazy: a stale one is
// discarded when popped.
func (net *Network) candPush(v int) {
	if v == net.src || v == net.snk {
		return
	}
	if net.inDeg[v] >= 2 && net.outDeg[v] >= 1 {
		net.candHeapPush(int64(net.outDeg[v])<<32 | int64(v))
	}
}

func (net *Network) candHeapPush(e int64) {
	h := append(net.cand, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	net.cand = h
}

func (net *Network) candHeapPop() int64 {
	h := net.cand
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	net.cand = h
	return top
}

// duplicateOne performs one Dodin duplication. It selects the join node v
// (in-degree ≥ 2) with the smallest out-degree — ties broken by smallest
// node ID — so that the fresh copy v' collapses by a series reduction as
// soon as possible, then moves v's first incoming arc onto a new node v'
// carrying copies of all of v's outgoing arcs. Returns false if the
// network has no join node.
//
// Selection pops the lazy candidate heap, whose (outDeg, node) ordering
// matches the original ascending-ID min-out-degree scan; entries whose
// degrees changed since they were pushed are discarded (the push hooks in
// addArc/killArc guarantee a current entry exists for every candidate).
func (net *Network) duplicateOne() bool {
	v := -1
	for len(net.cand) > 0 {
		e := net.candHeapPop()
		od, node := int32(e>>32), int(e&0xffffffff)
		if net.inDeg[node] >= 2 && net.outDeg[node] == od && od >= 1 {
			v = node
			break
		}
	}
	if v == -1 {
		return false
	}
	in := net.liveIn(v)
	moved := in[0]
	u := net.arcs[moved].from
	// New node v'.
	vp := net.addNode()
	net.killArc(moved)
	net.ops = append(net.ops, planOp{kind: opMove, a: int32(moved)})
	net.addArc(u, vp)
	for _, id := range net.liveOut(v) {
		// The copies replay as independent arcs carrying the same
		// distribution, which is Dodin's approximation.
		net.ops = append(net.ops, planOp{kind: opCopy, a: int32(id)})
		net.addArc(vp, net.arcs[id].to)
	}
	// Only v (one in-arc fewer) and v' (the fresh node) can have become
	// reducible; seed them for the next pass. v' must pop first, as the
	// highest index would in a full re-seed.
	net.seedPending(v)
	net.seedPending(vp)
	return true
}

// IsSeriesParallel reports whether the task graph g is series-parallel in
// the two-terminal AoA sense used by the reduction (true iff Dodin needs
// zero duplications).
func IsSeriesParallel(g *dag.Graph) (bool, error) {
	net, err := FromDAG(g)
	if err != nil {
		return false, err
	}
	return net.IsSeriesParallel(), nil
}
