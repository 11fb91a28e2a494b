package spgraph

import "math"

// reducePass applies series and parallel reductions until none applies,
// returning the number of reductions performed.
//
// Parallel reduction: two live arcs with the same endpoints merge into the
// first (opMax: the independent max of their distributions). Series
// reduction: an internal node with exactly one live incoming and one live
// outgoing arc disappears; the arcs merge into a new arc (opAdd: their
// convolution). Both are exact under the model's independence
// assumptions.
//
// The worklist replicates the original all-nodes LIFO stack — seed
// [0..n-1], pop descending, re-pushes on top — without its O(nodes) cost
// per pass. That stack's pop order is: nodes re-pushed after the pass
// already swept them pop first in LIFO order (they sat above the
// remaining seed), then the not-yet-swept nodes pop in descending index
// order (their seed positions). So the worklist splits in two: `lifo` for
// pushes at or above sweepPos (already swept this pass) and a max-heap
// `pending` for pushes below it, giving the identical reduction sequence
// — and therefore the identical recorded schedule — at O(log n) per
// operation. The first pass seeds every node; after a duplication only
// the two nodes whose degrees changed in a reducibility-relevant way are
// seeded (see duplicateOne), which is exactly the set the full re-seed
// would have found reducible.
func (net *Network) reducePass() int {
	if !net.seeded {
		net.seeded = true
		// Seed every node. Descending order is a valid max-heap layout.
		nn := len(net.in)
		net.pending = net.pending[:0]
		for v := nn - 1; v >= 0; v-- {
			net.pending = append(net.pending, int32(v))
			net.inQueue[v] = true
		}
	}
	net.sweepPos = math.MaxInt // fresh pass: nothing swept yet
	reductions := 0
	for {
		var v int
		switch {
		case len(net.lifo) > 0:
			v = int(net.lifo[len(net.lifo)-1])
			net.lifo = net.lifo[:len(net.lifo)-1]
		case len(net.pending) > 0:
			v = int(net.pending[0])
			n := len(net.pending) - 1
			net.pending[0] = net.pending[n]
			net.pending = net.pending[:n]
			net.pendingSift()
			net.sweepPos = v
		default:
			return reductions
		}
		net.inQueue[v] = false

		// Parallel reductions among v's outgoing arcs.
		if net.outDeg[v] > 1 {
			out := net.liveOut(v)
			net.headEpoch++
			for _, id := range out {
				head := net.arcs[id].to
				if net.headMark[head] == net.headEpoch {
					first := net.headFirst[head]
					net.ops = append(net.ops, planOp{kind: opMax, a: int32(first), b: int32(id)})
					net.killArc(id)
					reductions++
					net.push(v)
					net.push(head)
				} else {
					net.headMark[head] = net.headEpoch
					net.headFirst[head] = id
				}
			}
		}

		// Series reduction at v.
		if v == net.src || v == net.snk {
			continue
		}
		if net.inDeg[v] == 1 && net.outDeg[v] == 1 {
			in, out := net.liveIn(v), net.liveOut(v)
			net.ops = append(net.ops, planOp{kind: opAdd, a: int32(in[0]), b: int32(out[0])})
			a, b := net.arcs[in[0]], net.arcs[out[0]]
			net.killArc(in[0])
			net.killArc(out[0])
			net.addArc(a.from, b.to)
			reductions++
			net.push(a.from)
			net.push(b.to)
		}
	}
}

// push queues node v for (re-)examination within the current pass.
func (net *Network) push(v int) {
	if net.inQueue[v] {
		return
	}
	net.inQueue[v] = true
	if v >= net.sweepPos {
		net.lifo = append(net.lifo, int32(v))
	} else {
		net.pendingPush(int32(v))
	}
}

// seedPending queues v as a not-yet-swept node for the NEXT pass. Called
// between passes (duplicateOne), where every node counts as unswept.
func (net *Network) seedPending(v int) {
	if net.inQueue[v] {
		return
	}
	net.inQueue[v] = true
	net.pendingPush(int32(v))
}

// pendingPush inserts into the max-heap.
func (net *Network) pendingPush(v int32) {
	h := append(net.pending, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	net.pending = h
}

// pendingSift restores the max-heap after the root was replaced.
func (net *Network) pendingSift() {
	h := net.pending
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r] > h[l] {
			l = r
		}
		if h[i] >= h[l] {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// IsSeriesParallel reports whether the network is (two-terminal)
// series-parallel: it is iff series/parallel reductions alone collapse it
// to a single source→sink arc (Valdes–Tarjan–Lawler). The network is
// consumed.
func (net *Network) IsSeriesParallel() bool {
	net.reducePass()
	_, err := net.result()
	return err == nil
}
