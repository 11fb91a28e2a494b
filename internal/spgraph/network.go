// Package spgraph implements the series-parallel machinery behind the
// paper's "Dodin" competitor (§II-A2, §V-A): conversion of a task DAG into
// an activity-on-arc (AoA) network, series/parallel reductions,
// series-parallel recognition, and Dodin's node duplication that forces an
// arbitrary DAG into series-parallel form. Every reduction and duplication
// depends on topology alone, so Compile walks the network once and
// records the schedule as a Plan; Plan.Run is the one place that does the
// distribution arithmetic (exact independent max and convolution of the
// arcs' makespan distributions) under a failure model.
package spgraph

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dag"
)

// Network is a directed multigraph with a single source and a single
// sink — the topology of a PERT activity-on-arc network. It carries no
// distributions: reducing it records the schedule a Plan replays.
//
// The reduction machinery keeps incremental state so that a full Dodin
// run does O(1) work per reduction instead of rescanning the network:
// live in/out degree counters, a worklist that survives across
// duplications (lifo+pending, see reduce.go), an epoch-stamped scratch
// table for parallel-arc detection, and a lazy min-heap of join-node
// candidates for duplicateOne.
type Network struct {
	arcs     []arc
	aliveArc []bool
	in, out  [][]int // arc IDs per node (may contain dead arcs; filtered on use)
	src, snk int
	nAlive   int

	inDeg, outDeg []int32 // live arc counts per node

	// Worklist state (reduce.go). lifo holds nodes re-pushed after the
	// current pass already swept them; pending is a max-heap (by node
	// index) of nodes the pass has not reached yet. sweepPos is the index
	// of the pending node popped most recently in this pass.
	lifo     []int32
	pending  []int32
	inQueue  []bool
	sweepPos int
	seeded   bool // first pass seeds every node

	// Parallel-arc detection scratch: headFirst[h] is the first live arc
	// into h seen during the scan stamped headMark[h] == headEpoch.
	headFirst []int
	headMark  []int64
	headEpoch int64

	// Lazy join-candidate heap for duplicateOne: entries pack
	// (outDegree<<32 | node) and are validated against current degrees at
	// pop time. Every node whose degrees change while it satisfies
	// inDeg >= 2 && outDeg >= 1 has a current entry.
	cand []int64

	// init is each initial arc's payload in creation order: the task
	// whose two-state distribution the arc carries, or -1 for a
	// zero-length arc. ops is the reduction/duplication schedule, one
	// entry per merge or duplicated arc (see plan.go).
	init []int32
	ops  []planOp
}

type arc struct {
	from, to int
}

// DefaultMaxAtoms caps distribution supports during reductions. Without a
// cap, chains of convolutions of 2-state distributions grow exponentially
// (the pseudo-polynomial blow-up the paper notes for series-parallel
// graphs).
const DefaultMaxAtoms = 64

// FromDAG converts a task graph into an AoA network: task i becomes an arc
// between a fresh start/end node pair; each precedence edge becomes a
// zero-length arc; a super-source and super-sink tie up entry and exit
// tasks.
func FromDAG(g *dag.Graph) (*Network, error) {
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	n := g.NumTasks()
	// Node layout: 2i = start of task i, 2i+1 = end of task i,
	// 2n = super-source, 2n+1 = super-sink.
	nn := 2*n + 2
	net := &Network{
		in:        make([][]int, nn),
		out:       make([][]int, nn),
		src:       2 * n,
		snk:       2*n + 1,
		inDeg:     make([]int32, nn),
		outDeg:    make([]int32, nn),
		inQueue:   make([]bool, nn),
		headFirst: make([]int, nn),
		headMark:  make([]int64, nn),
		sweepPos:  math.MaxInt,
	}
	for i := 0; i < n; i++ {
		net.addInitArc(2*i, 2*i+1, int32(i))
		if g.InDegree(i) == 0 {
			net.addInitArc(net.src, 2*i, -1)
		}
		if g.OutDegree(i) == 0 {
			net.addInitArc(2*i+1, net.snk, -1)
		}
		for _, s := range g.Succ(i) {
			net.addInitArc(2*i+1, 2*s, -1)
		}
	}
	if n == 0 {
		net.addInitArc(net.src, net.snk, -1)
	}
	return net, nil
}

// addInitArc adds one of FromDAG's arcs, recording its payload.
func (net *Network) addInitArc(u, v int, task int32) {
	net.init = append(net.init, task)
	net.addArc(u, v)
}

// addNode appends a fresh node, growing every per-node table.
func (net *Network) addNode() int {
	id := len(net.in)
	net.in = append(net.in, nil)
	net.out = append(net.out, nil)
	net.inDeg = append(net.inDeg, 0)
	net.outDeg = append(net.outDeg, 0)
	net.inQueue = append(net.inQueue, false)
	net.headFirst = append(net.headFirst, 0)
	net.headMark = append(net.headMark, 0)
	return id
}

func (net *Network) addArc(u, v int) {
	id := len(net.arcs)
	net.arcs = append(net.arcs, arc{from: u, to: v})
	net.aliveArc = append(net.aliveArc, true)
	net.out[u] = append(net.out[u], id)
	net.in[v] = append(net.in[v], id)
	net.outDeg[u]++
	net.inDeg[v]++
	net.nAlive++
	net.candPush(u)
	net.candPush(v)
}

func (net *Network) killArc(id int) {
	if net.aliveArc[id] {
		net.aliveArc[id] = false
		net.nAlive--
		a := &net.arcs[id]
		net.outDeg[a.from]--
		net.inDeg[a.to]--
		net.candPush(a.from)
		net.candPush(a.to)
	}
}

// liveIn returns the live incoming arc IDs of v, compacting the list.
func (net *Network) liveIn(v int) []int {
	live := net.in[v][:0]
	for _, id := range net.in[v] {
		if net.aliveArc[id] {
			live = append(live, id)
		}
	}
	net.in[v] = live
	return live
}

// liveOut returns the live outgoing arc IDs of u, compacting the list.
func (net *Network) liveOut(u int) []int {
	live := net.out[u][:0]
	for _, id := range net.out[u] {
		if net.aliveArc[id] {
			live = append(live, id)
		}
	}
	net.out[u] = live
	return live
}

// NumArcs returns the number of live arcs.
func (net *Network) NumArcs() int { return net.nAlive }

// errNotReduced reports a network that did not collapse to a single arc.
var errNotReduced = errors.New("spgraph: network not reduced to a single arc")

// result returns the final arc's ID once the network has been fully
// reduced to a single source→sink arc.
func (net *Network) result() (int, error) {
	if net.nAlive != 1 {
		return 0, errNotReduced
	}
	for id, alive := range net.aliveArc {
		if alive {
			a := net.arcs[id]
			if a.from != net.src || a.to != net.snk {
				return 0, fmt.Errorf("%w: last arc (%d,%d) is not source→sink", errNotReduced, a.from, a.to)
			}
			return id, nil
		}
	}
	return 0, errNotReduced
}
