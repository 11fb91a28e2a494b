package spgraph

import (
	"fmt"
	"sync"

	"repro/internal/dag"
	"repro/internal/distribution"
	"repro/internal/failure"
)

// A Plan is the recorded reduction/duplication schedule of one Dodin run.
// Every decision Dodin makes — which arcs merge in series or parallel,
// which join node is duplicated — depends only on the network's topology,
// never on the arc distributions, so the schedule recorded under one
// failure model replays verbatim under any other. Replaying skips all of
// the graph bookkeeping (network construction, worklists, degree
// counters, candidate heaps) and performs only the distribution
// arithmetic, with the identical operand order — the replayed Result is
// bit-identical to a fresh Dodin run on the same graph and model.
//
// The experiments sweep scheduler records one plan per swept graph and
// replays it for every further pfail point, concurrently: Run is safe for
// concurrent use.
type Plan struct {
	// init describes the initial arcs in creation order: the task ID whose
	// two-state distribution the arc carries, or -1 for a zero-length
	// precedence arc.
	init []int32
	// weights snapshots the task weights at record time.
	weights []float64
	// ops is the recorded schedule. Arc IDs index the replay's dist array:
	// initial arcs first, every opAdd/opCopy appending one more — the same
	// ID assignment the live network used.
	ops      []planOp
	result   int32
	nArcs    int
	maxAtoms int
	stats    DodinStats

	pool sync.Pool // *planScratch
}

type planOp struct {
	kind uint8
	a, b int32
}

const (
	// opMax: dist[a] = MaxIndCapped(dist[a], dist[b]) — a parallel merge
	// into the surviving arc.
	opMax uint8 = iota
	// opAdd: append AddCapped(dist[a], dist[b]) — a series reduction
	// creating a new arc.
	opAdd
	// opCopy: append dist[a] — a duplication re-homing or copying an arc.
	opCopy
)

// planRec accumulates the schedule while the live run executes.
type planRec struct {
	ops []planOp
}

type planScratch struct {
	dists []distribution.Discrete
	s     distribution.Scratch
}

// DodinPlan runs Dodin on g exactly like Dodin and additionally records
// the reduction schedule for replay under other failure models.
func DodinPlan(g *dag.Graph, model failure.Model, maxAtoms int) (Result, DodinStats, *Plan, error) {
	if maxAtoms == 0 {
		maxAtoms = DefaultMaxAtoms
	}
	if maxAtoms < 0 {
		maxAtoms = 0 // unlimited
	}
	net, err := FromDAG(g, model, maxAtoms)
	if err != nil {
		return Result{}, DodinStats{}, nil, err
	}
	n := g.NumTasks()
	plan := &Plan{
		init:     make([]int32, len(net.arcs)),
		weights:  g.Weights(),
		maxAtoms: maxAtoms,
	}
	// Recover each initial arc's payload from the FromDAG node layout:
	// the arc (2i, 2i+1) carries task i, everything else is a zero arc.
	for id, a := range net.arcs {
		plan.init[id] = -1
		if a.from < 2*n && a.from%2 == 0 && a.to == a.from+1 {
			plan.init[id] = int32(a.from / 2)
		}
	}
	net.rec = &planRec{}
	res, stats, err := net.Dodin()
	if err != nil {
		return Result{}, stats, nil, err
	}
	plan.ops = net.rec.ops
	plan.stats = stats
	plan.nArcs = len(net.arcs)
	// Replay appends exactly one arc per opAdd/opCopy; verify the
	// recording accounts for every live arc so IDs line up.
	appended := 0
	for _, op := range plan.ops {
		if op.kind != opMax {
			appended++
		}
	}
	if len(plan.init)+appended != plan.nArcs {
		return Result{}, stats, nil, fmt.Errorf("spgraph: plan recorded %d arcs, network has %d", len(plan.init)+appended, plan.nArcs)
	}
	for id, alive := range net.aliveArc {
		if alive {
			plan.result = int32(id)
		}
	}
	return res, stats, plan, nil
}

// Stats returns the duplication/reduction counts of the recorded run;
// they are topology-only and hold for every replay.
func (p *Plan) Stats() DodinStats { return p.stats }

// SizeBytes reports the approximate retained heap size of the recorded
// schedule (initial-arc table, weight snapshot and op list), excluding
// pooled replay scratch. Used by the makespand registry's byte budget.
func (p *Plan) SizeBytes() int64 {
	s := int64(len(p.init)) * 4
	s += int64(len(p.weights)) * 8
	s += int64(len(p.ops)) * 12 // planOp: uint8 + 2×int32, aligned
	return s + 96               // struct header + pool
}

// Run replays the plan under model, returning the same Result a fresh
// Dodin run on the recorded graph would produce, bit for bit. Safe for
// concurrent use; scratch buffers are pooled across calls.
func (p *Plan) Run(model failure.Model) (Result, error) {
	ps, _ := p.pool.Get().(*planScratch)
	if ps == nil {
		ps = &planScratch{}
	}
	if cap(ps.dists) < p.nArcs {
		ps.dists = make([]distribution.Discrete, p.nArcs)
	}
	dists := ps.dists[:0]
	zero := distribution.Point(0)
	for _, task := range p.init {
		if task < 0 {
			dists = append(dists, zero)
			continue
		}
		a := p.weights[task]
		d, err := distribution.TwoState(a, model.PSuccess(a))
		if err != nil {
			p.pool.Put(ps)
			return Result{}, fmt.Errorf("spgraph: task %d: %w", task, err)
		}
		dists = append(dists, d)
	}
	for _, op := range p.ops {
		switch op.kind {
		case opMax:
			dists[op.a] = dists[op.a].MaxIndCapped(dists[op.b], p.maxAtoms, &ps.s)
		case opAdd:
			dists = append(dists, dists[op.a].AddCapped(dists[op.b], p.maxAtoms, &ps.s))
		default: // opCopy
			dists = append(dists, dists[op.a])
		}
	}
	d := dists[p.result]
	res := Result{Estimate: d.Mean(), Distribution: d}
	// Drop references so pooled scratch does not pin whole distributions.
	for i := range dists {
		dists[i] = distribution.Discrete{}
	}
	ps.dists = dists[:0]
	p.pool.Put(ps)
	return res, nil
}
